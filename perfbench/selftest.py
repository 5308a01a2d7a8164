"""Self-test of the benchmark on tiny grids; runs every operation of every workload in seconds.

    python3 perfbench/selftest.py

Checks that
  * every end-to-end metric of BENCHMARK.json is reported, with its unit,
    on every workload, and the smoke outputs pass their checks;
  * every per-layer metric is reported, and each layer span fires on the
    workloads the layer table names (and spectral code never runs on long-run);
  * a layer function that no longer exists gives a null metric, not a crash;
  * a deliberately wrong reference value is counted as a failed operation;
  * without the package source the benchmark exits non-zero and prints no result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
ALL = set(workloads.NAMES)
DN, LR, SD = workloads.NAMES
SPECTRAL = ("spectral.restriction_maps_s", "spectral.reduce_s", "spectral.eigvals_s",
            "spectral.dense_dim", "spectral.dissipativity_trials",
            "spectral.dissipativity_us_per_trial")

# per-layer metric -> workloads whose traced pass must make it non-zero
FIRES = {
    "constants.find_beta0_s": {DN}, "constants.certify_calls": ALL,
    "constants.certify_us": ALL,
    "discretization.build_operators_s": ALL,
    "discretization.assemble_generator_s": {DN, SD},
    "discretization.generator_nnz": {DN, SD},
    "integrate.factor_implicit_s": ALL, "integrate.factorizations": ALL,
    "integrate.step_us": ALL, "integrate.step_us_p99": ALL, "integrate.steps": ALL,
    "delay.as_field_us": ALL, "delay.init_history_s": ALL,
    "observables.record_us": ALL, "observables.records": ALL,
    "observables.decay_rate_fit_s": ALL,
    **{name: {DN, SD} for name in SPECTRAL},
    "spectral.refine_s": {DN}, "spectral.refine_converged": {DN},
    "spectral.refined": {DN},
    "config.load_config_s": ALL,
    "cli.self_s": ALL, "cli.output_bytes": ALL,
    "cli.sweep_busy_ratio": {SD}, "cli.sweep_points": {SD},
    "share.spectral_of_spectrum": {DN}, "share.step_of_simulate": {DN, LR},
}

failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_untraced():
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name in workloads.NAMES:
        wl = workloads.build(name, seed=0, smoke=True)
        res = run.run_untraced(wl, seconds=0)
        line = run.result_line(res)
        expect(set(line) == set(units), f"{name}: end-to-end metrics {sorted(line)}")
        for metric, unit in units.items():
            got = line.get(metric, {})
            expect(got.get("unit") == unit and is_number(got.get("value"))
                   and got["value"] > 0, f"{name}: {metric} = {got}")
        expect(res.failed == 0, f"{name}: smoke outputs pass their checks {res.failures}")


def check_traced():
    names = {m["name"] for m in SPEC["per_layer"]}
    expect(set(FIRES) <= names, "every layer-table metric is in BENCHMARK.json")
    for name in workloads.NAMES:
        wl = workloads.build(name, seed=0, smoke=True)
        res = run.run_traced(wl)
        line = run.result_line(res)
        expect(set(line) == names, f"{name}: per-layer metrics match BENCHMARK.json")
        for metric, where in FIRES.items():
            value = line[metric]["value"]
            if name in where:
                expect(is_number(value) and value > 0, f"{name}: {metric} fires ({value})")
        if name == LR:
            quiet = [m for m in SPECTRAL if line[m]["value"] != 0]
            expect(not quiet, f"{name}: no spectral span fires ({quiet})")
        expect(res.failed == 0, f"{name}: traced outputs pass their checks {res.failures}")


def check_missing_function():
    """A layer function deleted from the package reads as null, not a crash."""
    mods = run._import_package()
    spectral = mods["spectral"]
    saved_fn, saved_all = spectral.restriction_maps, spectral.__all__
    del spectral.restriction_maps
    spectral.__all__ = [n for n in saved_all if n != "restriction_maps"]
    try:
        res = run.run_traced(workloads.build(LR, seed=0, smoke=True))
    finally:
        spectral.restriction_maps, spectral.__all__ = saved_fn, saved_all
    value = res.metrics["spectral.restriction_maps_s"][0]
    expect(value is None, f"deleted restriction_maps gives a null metric ({value})")
    expect(is_number(res.metrics["integrate.step_us"][0]), "other metrics still measured")


def check_wrong_reference():
    wl = workloads.build(DN, seed=0, smoke=True)
    wl.reference = {"beta0": (4.0, "rel", 1e-6)}
    run_dir = run.prepare(wl, "wrong-reference")
    res = run.Result()
    run.run_process(wl, workloads.Op("certify", "certify.ini", 1), run_dir, "certify", res)
    expect(res.failed == 1 and "beta0" in res.failures[0][1],
           f"a wrong beta0 reference is a failed operation ({res.failures})")


def check_without_source():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", LR, "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    printed = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    expect(proc.returncode != 0 and not printed,
           f"without src/ the benchmark exits {proc.returncode} and prints no result")
    shutil.rmtree(bare)


def main():
    check_untraced()
    check_traced()
    check_missing_function()
    check_wrong_reference()
    check_without_source()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
