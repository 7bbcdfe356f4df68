"""Placeholder for the removed compiled enumerator.

Enumeration has one implementation, the numpy sumset sweep
`enumerate1d.SumsetEnumerator`; the numba twin of the heap reference is
gone, so nothing here is compiled.  The module stays so that tools
reporting which kernels run compiled can still ask.
"""


def available() -> bool:
    """Always False: there is no compiled enumerator."""
    return False
