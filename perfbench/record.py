"""Record the expected outputs that the benchmark's regression checks compare
against: the derive-par state pool with the SHA-256 of each state's printed
derivations, and the verdicts and report hash of every check-specs input.
Each pool state also gets `cost_s`, the least of two timings of its
derivation here; the benchmark uses it only to sort the pool into bands.

Run it from the repository root at the commit whose outputs are the
reference:

    python3 perfbench/record.py            # rewrite perfbench/expected.json
    python3 perfbench/record.py --verify   # recompute and compare, exit 1 on a difference
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as W  # noqa: E402

POOL_SEED = 0
POOL_PER_WIDTH = 100


def derive_pool() -> list[dict]:
    from nomsos import enumerate_transitions, load_corpus, parse_term_str

    spec = load_corpus("pi.spec")
    rng = random.Random(f"derive-par-pool/{POOL_SEED}")
    pool = []
    for w in W.WIDTHS:
        seen: set[str] = set()
        while len(seen) < POOL_PER_WIDTH:
            state = W.random_par(rng, w)
            if state in seen:
                continue
            seen.add(state)
            term = parse_term_str(spec, state)
            costs = []
            for _ in range(2):
                t0 = time.perf_counter()
                enum = enumerate_transitions(spec, term)
                costs.append(time.perf_counter() - t0)
            pool.append(
                {
                    "width": w,
                    "state": state,
                    "sha256": W.sha(W.derivations_text(enum)),
                    "cost_s": round(min(costs), 4),
                }
            )
    return pool


def check_specs() -> dict:
    from nomsos import check_all, parse_spec

    out = {}
    for name, text in W.spec_texts():
        reports = check_all(parse_spec(text))
        out[name] = {
            "passed": [r.passed for r in reports],
            "sha256": W.sha(W.reports_text(reports)),
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--verify", action="store_true")
    args = ap.parse_args()
    data = {"derive-par": derive_pool(), "check-specs": check_specs()}
    if args.verify:
        old = W.load_expected()
        for e in data["derive-par"] + old["derive-par"]:
            del e["cost_s"]
        same = data == old
        print("expected outputs " + ("match" if same else "DIFFER"))
        return 0 if same else 1
    W.EXPECTED.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
