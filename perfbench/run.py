"""Run one benchmark workload from a seed and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload online-mdf --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs
half the window untraced and half traced, prints the per-layer metrics, and
writes ``.perfbench-out/<workload>.trace.json`` (Chrome trace format) next
to ``.perfbench-out/<workload>.layers.json``.

Method:

* The inputs are generated from ``--seed`` here; the system under test only
  receives the generated traces, jobs and specs.
* Every ``REPRO_*`` switch is removed from the environment first, so the
  system, its worker processes and its daemon run with the defaults.
* Set-up (imports, DSE tables, inputs, the Fig. 1 reference check, and the
  store pre-fill or daemon start of the workload) is timed from the start
  of the process and divided like the other timings (below), by probes on
  every CPU before and after it.  An untraced run sets up twice more, each
  time in a fresh process, and reports the median of the three as
  ``setup_s``.
* Each workload repeats its unit of work (a trace replay, a batch, a
  round of gateway submissions) until ``--seconds`` pass, with probe
  loops next to the work that time the host's speed there.  Every timing
  is divided by how much slower than a reference host the probes ran
  (:func:`perfbench.common.probe_seconds`), each operation keeps its
  median over the repeats, and the workload reports the throughput and
  the p50 and p99 of per-operation latency from those medians.  The
  record line keeps the same figures undivided.
* Outputs are checked on every run: log and batch fingerprints must repeat
  exactly, gateway results must match an in-process run, every admitted
  request must meet its firm deadline, and the paper's Fig. 1 numbers must
  come out.  Any mismatch counts as a failed operation.

The last line of standard output is the JSON result; the line before it is
the host probe.  The process exits non-zero without a result on any error.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402 — the set-up clock starts before any import
import json  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

#: Extra set-ups, each in a fresh process, behind the reported ``setup_s``.
EXTRA_SETUPS = 2
SETUP_TIMEOUT_S = 120


def _workload(name: str):
    if name in ("online-mdf", "online-lr-dvfs"):
        from perfbench.online import ONLINE_LR_DVFS, ONLINE_MDF, OnlineWorkload

        config = ONLINE_MDF if name == "online-mdf" else ONLINE_LR_DVFS
        return OnlineWorkload(name, config)
    if name == "batch-cluster":
        from perfbench.batch import BatchWorkload

        return BatchWorkload()
    from perfbench.gateway import GatewayWorkload

    return GatewayWorkload()


def _extra_setup(args) -> dict[str, float]:
    """Set up once more in a fresh process; return its set-up times."""
    completed = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return json.loads(completed.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("online-mdf", "online-lr-dvfs", "batch-cluster", "gateway-closed-loop"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    # A terminated run still tears down (stops the gateway daemon, removes
    # the batch stores) on its way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    removed = common.pin_environment()
    common.use_source_tree()
    probed = time.perf_counter()
    before = common.probe_each_cpu()
    probing_s = time.perf_counter() - probed
    workload = _workload(args.workload)
    tally = common.Tally()
    try:
        layers = workload.setup(args.seed)
        tally.attempted += 1
        for problem in common.check_fig1():
            tally.fail(1, f"Fig. 1: {problem}")
        raw_setup_s = time.perf_counter() - PROCESS_STARTED - probing_s
        setup = {
            "setup_s": raw_setup_s
            / common.slowdown_between(before, common.probe_each_cpu()),
            "raw_setup_s": raw_setup_s,
        }
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if args.trace:
            layers.update(workload.measure_layers(args.seconds, tally))
        else:
            metrics, raw = workload.measure(args.seconds, tally)
            rss_mb = workload.peak_rss_mb()
    finally:
        teardown = getattr(workload, "teardown", None)
        if teardown is not None:
            teardown()

    from perfbench.layers import PER_LAYER, layer_metrics

    probe = common.host_probe(removed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "host": probe,
        "validation": common.VALIDATION_NOTE,
    }
    if hasattr(workload, "fingerprint"):
        record["fingerprint"] = workload.fingerprint
    if args.trace:
        metrics = layer_metrics(layers)
        record["layers"] = {
            name: {"value": metrics[name][0], "unit": unit, "moves": moves}
            for name, unit, _, moves in PER_LAYER
        }
        common.OUT_DIR.mkdir(exist_ok=True)
        path = common.OUT_DIR / f"{args.workload}.layers.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    else:
        setups = [setup] + [_extra_setup(args) for _ in range(EXTRA_SETUPS)]
        metrics["setup_s"] = (common.median([one["setup_s"] for one in setups]), "s")
        raw["setup_s"] = (common.median([one["raw_setup_s"] for one in setups]), "s")
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        record["raw"] = {name: value for name, (value, _) in raw.items()}
        record["units"] = workload.units
        record["samples"] = workload.samples
        record["setups_s"] = [one["setup_s"] for one in setups]
    for reason in tally.reasons:
        print(f"failed: {reason}")
    print(json.dumps(record, sort_keys=True))
    print(common.result_line(tally, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
