"""Regenerate the frozen instances and their reference answers.

    PYTHONPATH=src python3 perfbench/make_reference.py

Writes `perfbench/instances/*.txt` and `perfbench/reference.json`.  The
answers must come from a commit whose results are trusted (they were
recorded with the seed implementation); rerunning it on a later commit
would make the correctness gate compare that commit with itself.  Takes
about two minutes on a 2-core machine, most of it in the (6,50,100)
first-solution solves.
"""

from __future__ import annotations

import hashlib
import json
import sys

import marketsplit as ms

from workloads import INSTANCE_DIR, K, REFERENCE_PATH, all_instance_keys, instance_name


def main() -> int:
    INSTANCE_DIR.mkdir(exist_ok=True)
    instances = {}
    for m, seed in all_instance_keys():
        name = instance_name(m, seed)
        text = ms.write_instance(ms.generate_instance(m, K, seed))
        (INSTANCE_DIR / name).write_text(text, encoding="utf-8")
        inst = ms.parse_instance(text)
        # Exhaustive answers only where full exhaustion is cheap (m <= 5);
        # the (6,50,100) instances are checked by verdict and verification.
        mode = "all" if m <= 5 else "first"
        result = ms.solve(inst, ms.SolverConfig(mode=mode, worker_count=1))
        entry = {
            "m": m,
            "seed": seed,
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "verdict": result.verdict,
        }
        if mode == "all":
            entry["solutions"] = sorted(ms.solution_to_string(x) for x in result.solutions)
        instances[name] = entry
        print(name, result.verdict, f"{result.stats.t_total:.2f}s", file=sys.stderr)
    reference = {"baseline_engine": "python", "instances": instances}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
