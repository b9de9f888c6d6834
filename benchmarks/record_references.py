"""Record the tilt_sweep reference CSVs into ``reference/tilt_sweep.json``.

Run by hand, from the repository root, only when the references must be
recorded again (the benchmark never writes them):

    python3 benchmarks/record_references.py

The grid has two tilts: ``TAU_MIN`` below the maximally-entangled cutoff
(about 1.2071) and ``TAU_MAX`` above it.  The demo-slice numbers in
``reference/demo_slice.json`` are the published worked example and are
written by hand.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil

from run import REFERENCES, WORK, import_package

TAU_MIN = 1.1736
TAU_MAX = 1.427
GRID = 2


def main() -> int:
    import_package()
    from bellbound import cli

    out_dir = WORK / "record"
    argv = ["curves", "--tau-min", repr(TAU_MIN), "--tau-max", repr(TAU_MAX),
            "--grid", str(GRID), "--output", str(out_dir)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != cli.EXIT_OK:
            raise SystemExit(f"curves {argv} exited with {code}")
        payload = {
            "description": "bellbound curves output on a small tilt grid across the cutoff; each CSV is a list of its lines.",
            "tau_min": TAU_MIN,
            "tau_max": TAU_MAX,
            "grid": GRID,
        }
        for name in (cli.CSV_VIOLATION, cli.CSV_CONCURRENCE):
            payload[name] = (out_dir / name).read_text(encoding="utf-8").splitlines()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    (REFERENCES / "tilt_sweep.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"recorded tau in [{TAU_MIN}, {TAU_MAX}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
