"""Write reference.json from the outputs of the current checkout.

    python3 perfbench/record.py

Run it at the commit whose outputs later commits must reproduce.  Every
job of round 0 of each workload is run once; CLI jobs keep their exit
code and a digest of their stdout, grids their status counts and sampled
values, and each known-defect probe the exception it raises here.
Seeded jobs are checked against closed-form oracles and record nothing.
"""

import contextlib
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402


def main():
    mods = run.load_package()
    rec = workloads.Recorder()
    work_root = run.BENCH / "_work" / f"record-{os.getpid()}"
    try:
        for name, build in workloads.BUILDERS.items():
            workdir = work_root / name
            workdir.mkdir(parents=True)
            os.chdir(workdir)
            for job in build(mods, workloads.Inputs(mods, workdir), 0, rec).rounds(0):
                try:
                    result = job.call()
                except Exception as exc:
                    if not job.probe:
                        raise
                    rec.data["probes"][job.key] = type(exc).__name__
                    continue
                job.check(result)
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.parent.rmdir()
    sections = []
    for name in ("jobs", "probes"):
        entries = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                   for k, v in sorted(rec.data[name].items())]
        sections.append(f' "{name}": {{\n' + ",\n".join(entries) + "\n }")
    run.REFERENCE.write_text("{\n" + ",\n".join(sections) + "\n}\n", encoding="utf-8")
    print(f"wrote {len(rec.data['jobs'])} entries and {len(rec.data['probes'])} probes "
          f"to {run.REFERENCE}")


if __name__ == "__main__":
    main()
