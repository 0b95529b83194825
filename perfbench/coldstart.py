"""Cold start of the fields a workload uses, timed from `import ppf`.

Field contexts are memoized per process, so a fresh interpreter is the only
honest cold start: `ppf verify` users pay this on every call.  This module
uses the standard library only, so importing it costs nothing that the
timed region would otherwise pay.

Run as a script it performs one cold start and prints its seconds, at
reference host speed (see hostspeed.py) and wall, as JSON:

    python3 perfbench/coldstart.py <workload> [--size full|smoke]
"""

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# The q of F_{q^2} each workload sweeps or checks, per run size.
SWEEP_QS = {"full": (5, 7, 8), "smoke": (5,)}
CROSSCHECK_QS = {"full": (3, 4, 5, 7, 8, 11, 13), "smoke": (3, 4, 5)}
# verify: F_{2^16} as F_2 -> F_{2^8} -> F_{2^16}, and F_{1021^2} (a prime base
# just under the 2^20 cap); the smoke size uses F_{2^8} and F_{31^2}.
VERIFY_TOWERS = {"full": ((2, 8, 2), (1021, 1, 2)), "smoke": ((2, 4, 2), (31, 1, 2))}


def add_src_to_path():
    """Put the checkout's own `src` first on sys.path; fail if it is missing."""
    if not (SRC / "ppf" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'ppf'} not found; run from a ppf checkout")
    sys.path.insert(0, str(SRC))


def build_fields(workload, size):
    """Build every field `workload` uses, with generator, log/exp tables and
    Frobenius table, down the whole tower.  Returns the outermost contexts."""
    from ppf.fields import build_tower, field_for_q_squared

    if workload == "sweep":
        ctxs = [field_for_q_squared(q) for q in SWEEP_QS[size]]
    elif workload == "crosscheck":
        ctxs = [field_for_q_squared(q) for q in CROSSCHECK_QS[size]]
    else:
        ctxs = [build_tower(p, k=k, n=n) for p, k, n in VERIFY_TOWERS[size]]
    for ctx in ctxs:
        c = ctx
        while c is not None:
            c.generator
            c.ensure_tables()
            if c.base is not None:
                c.frob_table
            c = c.base
    return ctxs


def cold_start(workload, size):
    """(seconds from `import ppf` until the fields are built, at reference
    host speed; wall seconds; the contexts).  The host probe starts once
    `import ppf` has loaded numpy, which the probe needs."""
    t0 = time.perf_counter()
    import ppf  # noqa: F401  (the import is part of the cold start)
    from hostspeed import HostSpeed, probe_kind
    with HostSpeed(probe_kind(workload)) as host:
        ctxs = build_fields(workload, size)
    t1 = time.perf_counter()
    return host.reference_seconds(t0, t1), t1 - t0, ctxs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload")
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args()
    add_src_to_path()
    seconds, wall, _ = cold_start(args.workload, args.size)
    print(json.dumps({"setup_s": seconds, "wall_s": wall}))


if __name__ == "__main__":
    main()
