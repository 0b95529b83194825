#!/usr/bin/env python3
"""Recompute perfbench/reference.json from the program as it stands.

The pinned outcomes were recorded with this script at the commit that
introduced the benchmark; `ppf ... --format json` output is meant to stay
byte-identical, so a later run should reproduce the file exactly.

    python3 perfbench/pin_reference.py
"""

import hashlib
import json
import sys

import coldstart

coldstart.add_src_to_path()

import workloads  # noqa: E402  (needs src/ on sys.path)
from ppf import cli  # noqa: E402


def pin_sweep():
    qs = coldstart.SWEEP_QS["full"]
    out = workloads.HERE.parent / ".perfbench_out" / "pin-sweep.json"
    out.parent.mkdir(exist_ok=True)
    m = str(workloads.SWEEP_M_N_MAX)
    cli.main(["--seed", "0", "--format", "json", "--out", str(out), "table1",
              "--q", ",".join(map(str, qs)), "--m-max", m, "--n-max", m])
    data = json.loads(out.read_text())
    out.unlink()
    per_q = {}
    for q in qs:
        reports = [r for r in data["reports"] if r["q"] == q]
        blob = json.dumps(reports, sort_keys=True, separators=(",", ":")).encode()
        per_q[str(q)] = {"instances": len(reports),
                         "disagreements": sum(1 for r in reports if not r["agree"]),
                         "sha256": hashlib.sha256(blob).hexdigest()}
    return {"m_max": workloads.SWEEP_M_N_MAX, "n_max": workloads.SWEEP_M_N_MAX,
            "per_q": per_q}


def pin_crosscheck():
    refuted = []
    for key, run, judge in workloads.crosscheck_list(0, "full"):
        if not judge(run()):
            if key.split()[0] in workloads.SEEDED_PER_FIELD:
                sys.exit(f"seeded check {key} failed: not pinning a seed-dependent outcome")
            refuted.append(key)
    return {"refuted": refuted}


def main():
    ref = {"sweep": pin_sweep(), "crosscheck": pin_crosscheck()}
    path = workloads.HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}: " + ", ".join(
        f"q={q} {r['instances']} instances, {r['disagreements']} disagreements"
        for q, r in ref["sweep"]["per_q"].items())
        + f"; {len(ref['crosscheck']['refuted'])} refuted cross-checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
