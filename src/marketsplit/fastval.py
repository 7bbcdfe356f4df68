"""Placeholder for the removed compiled validation kernel.

Validation has one implementation, the numpy bitmap join in
`validate.py`, so nothing here is compiled.  The module stays so that
tools reporting which kernels run compiled can still ask.
"""


def available() -> bool:
    """Always False: there is no compiled validator."""
    return False
