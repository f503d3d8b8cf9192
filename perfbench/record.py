"""Regenerate ``expected.json``, the outputs every benchmark job is
checked against.

Run from the repository root (takes a few minutes)::

    python3 perfbench/record.py

* ``sweep``: content key, plan size and aggregates of every nightly
  cell, from one cold sweep;
* ``campaign``: the aggregates of every campaign slice at every stride
  offset, computed on the threaded core (the batched core the workload
  runs must agree with it);
* ``validate``: the Table II report of every validated kernel.

Only re-record when a change is meant to alter these outputs; a key
drift, for one, turns every user's warm store cold.
"""

import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.fi.engine import CampaignEngine        # noqa: E402
from repro.fi.machine import Machine              # noqa: E402
from workloads import (CAMPAIGN_OFFSETS, EXPECTED, WORK,  # noqa: E402
                       campaign_plans, sweep, validation_inputs,
                       validation_reports)


def record_sweep():
    os.makedirs(WORK, exist_ok=True)
    directory = tempfile.mkdtemp(dir=WORK)
    try:
        outputs = sweep(os.path.join(directory, "store.sqlite"))
    finally:
        shutil.rmtree(directory)
    return {label: {field: cell[field] for field in
                    ("key", "plan_runs", "effects", "distinct_traces")}
            for label, cell in outputs["cells"].items()}


def record_campaign():
    expected = {}
    for offset in range(CAMPAIGN_OFFSETS):
        for name, family, batched, plan, regs, golden \
                in campaign_plans(offset):
            threaded = Machine(batched.function,
                               memory_image=batched.memory_image)
            result = CampaignEngine(threaded, plan, regs=regs,
                                    golden=golden).run(
                workers=2, checkpoint_interval=max(1, golden.cycles // 32))
            expected[f"{name}/{family}/{offset}"] = {
                "runs": len(plan), "effects": result.effect_counts(),
                "distinct_traces": result.distinct_traces}
            print(name, family, offset, len(plan), flush=True)
    return expected


def record_validate():
    return validation_reports(validation_inputs())


def main():
    expected = {"sweep": record_sweep(), "validate": record_validate(),
                "campaign": record_campaign()}
    with open(EXPECTED, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
