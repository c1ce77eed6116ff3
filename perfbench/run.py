#!/usr/bin/env python3
"""Benchmark of the orbitroles pipeline on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout (the directory holding ``src``).
Inputs are generated from the seed before anything is timed. The
pipeline then runs in a fresh process, again and again until --seconds
have passed, and every run's outputs are checked. With --trace 0 the
runs are untraced and the end-to-end metrics are reported; with
--trace 1 untraced and traced runs alternate and the per-layer metrics
come from the traced ones. The last stdout line is the JSON result; the
line before it records the environment, every repeat's time and the
output digests.

pipeline_norm_s is the mean wall time of the untraced repeats of the
run, corrected for host speed: a fixed probe computation (hostspeed.py)
is timed after every repeat, and the mean pipeline time is divided by the
mean probe time and multiplied by the probe's nominal time. On a shared
2-vCPU VM the host's speed drifts by up to 40% over minutes; no estimator
over the repeats of one run removes that, the probe ratio does. setup_s
is the median set-up time, corrected by the same factor; set-up is
probed after every untraced repeat, so it samples the same spells. Peak
memory is a median. Every repeat's wall and CPU time, every set-up time
and every probe time are in the record line.
Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread in this process and in every child it starts (children
# inherit the environment). OpenBLAS threads busy-wait on each other: on a
# VM with two vCPUs shared with other tenants, 25 calls of a 2-thread
# 800x800 eigh took 0.09 s to 1.16 s, against 0.12-0.17 s with one thread.
# Set before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from workloads import WORKLOADS, generate_inputs  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 7  # at least this many set-up probes per untraced run

END_TO_END_UNITS = {
    "pipeline_norm_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_share": "fraction",
}
PER_LAYER_UNITS = {
    "graph.load_s": "s",
    "orbits.count_s": "s",
    "orbits.estimate_mb": "MB",
    "orbits.rss_growth_mb": "MB",
    "orbits.guard_ratio": "ratio",
    "embeddings.graphwave_s": "s",
    "embeddings.graphwave_rss_growth_mb": "MB",
    "embeddings.graphwave_components": "count",
    "embeddings.graphwave_max_component": "count",
    "embeddings.graphwave_cubic_work": "count",
    "embeddings.rolx_s": "s",
    "embeddings.refex_s": "s",
    "embeddings.refex_features_kept": "count",
    "embeddings.nmf_iters": "count",
    "embeddings.nmf_converged": "bool",
    "clustering.sweep_s": "s",
    "clustering.sweep_self_s": "s",
    "clustering.silhouette_s": "s",
    "clustering.silhouette_calls": "count",
    "clustering.silhouette_pairs": "count",
    "clustering.silhouette_sampled": "count",
    "clustering.kmeans_s": "s",
    "clustering.kmeans_calls": "count",
    "clustering.kmeans_iters": "count",
    "clustering.degenerate_cells": "count",
    "clustering.assign_s": "s",
    "clustering.role_nmi": "fraction",
    "surrogate.fit_s": "s",
    "surrogate.tree_nodes": "count",
    "surrogate.features_used": "count",
    "surrogate.importance_s": "s",
    "surrogate.importance_tree_rows": "count",
    "surrogate.effect_s": "s",
    "surrogate.effect_curves": "count",
    "surrogate.effect_tree_rows": "count",
    "surrogate.holdout_accuracy": "fraction",
    "diversity.idr_s": "s",
    "diversity.nodes_scored": "count",
    "io.write_s": "s",
    "io.bytes_written": "bytes",
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "trace.covered_share": "fraction",
}


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 1.0:
            raise TimeoutError("benchmark run exceeded its deadline")
        return left


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_rows(path: Path) -> list:
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:] if line]


def nmi(a: list, b: list) -> float:
    """Normalized mutual information, I(a;b) / sqrt(H(a) H(b))."""
    import numpy as np

    _, ai = np.unique(np.asarray(a), return_inverse=True)
    _, bi = np.unique(np.asarray(b), return_inverse=True)
    joint = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(joint, (ai, bi), 1.0)
    joint /= joint.sum()
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    nz = joint > 0
    info = float((joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])).sum())
    ha = float(-(pa * np.log(pa)).sum())
    hb = float(-(pb * np.log(pb)).sum())
    denom = (ha * hb) ** 0.5
    return info / denom if denom > 0 else 1.0


def role_nmi(truth_csv: Path, roles_csv: Path) -> float:
    truth = {r["id"]: r["true_role"] for r in read_rows(truth_csv)}
    found = {r["id"]: r["role"] for r in read_rows(roles_csv)}
    ids = sorted(truth)
    return nmi([truth[i] for i in ids], [found[i] for i in ids])


def child(env, deadline, *args) -> dict:
    """Run perfbench/child.py in a fresh interpreter; return its result."""
    result_path = Path(args[args.index("--result") + 1])
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=deadline.left(),
    )
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"rc": proc.returncode or 1, "error": " | ".join(tail)}
    return json.loads(result_path.read_text(encoding="utf-8"))


def time_setup(env, deadline) -> float:
    """Seconds from starting a fresh interpreter until `import orbitroles.cli`
    is done, read by the child's clock so interpreter teardown is excluded."""
    cmd = [sys.executable, "-c", "import time, orbitroles.cli; print(repr(time.time()))"]
    start = time.time()
    proc = subprocess.run(
        cmd, env=env, check=True, capture_output=True, text=True, timeout=deadline.left()
    )
    return float(proc.stdout) - start


def check_outputs(workload, out: Path, reference: dict | None):
    """Digests of the run's CSVs and a list of failed checks."""
    problems = []
    if (out / "FAILED").exists():
        problems.append("FAILED marker: " + (out / "FAILED").read_text().strip())
    manifest_path = out / "manifest.json"
    listed = []
    if manifest_path.exists():
        listed = json.loads(manifest_path.read_text(encoding="utf-8"))["outputs"]
    else:
        problems.append("manifest.json missing")
    digests = {}
    for name in workload.expected_outputs():
        if not (out / name).exists():
            problems.append(f"{name} missing")
        elif name not in listed:
            problems.append(f"{name} not listed in the manifest")
        else:
            digests[name] = sha256(out / name)
    if reference is not None and digests != reference:
        changed = sorted(k for k in reference if digests.get(k) != reference[k])
        problems.append(f"output differs from the first run: {changed}")
    return digests, problems


def environment(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def _git_sha(root: Path) -> str:
    """HEAD of the checkout, if the checkout itself is a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return "unavailable"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return "unavailable"
    return lines[1]


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if it cannot be read."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_workload(workload, seed, seconds, trace, root: Path, corrupt=False):
    """Generate inputs, check, measure; returns (result, record)."""
    deadline = Deadline(DEADLINE_S)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    work = root / ".perfbench_work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    attempted = failed = 0
    problems = []
    try:
        inputs = generate_inputs(workload, seed, work, env)

        oracle = child(env, deadline, "oracle", "--result", str(work / "oracle.json"),
                       "--seed", str(seed), *(["--tiny"] if workload.tiny else []))
        checks = oracle.get("checks", [{"agree": False, "error": oracle.get("error")}])
        attempted += len(checks)
        bad = [c for c in checks if not c["agree"]]
        failed += len(bad)
        problems += [f"census differs from the oracle: {c}" for c in bad]

        # set-up and host-speed probes are spread over the run, one of each
        # after every untraced repeat, so they sample the same spells of
        # host speed as the repeats
        setup, probes = [], []
        if not trace:
            time_setup(env, deadline)  # warm-ups, discarded
            hostspeed.probe()

        cli_args = [str(inputs.graph), "--config", str(inputs.config)]
        if inputs.labels is not None:
            cli_args += ["--labels", str(inputs.labels)]
        runs, reference, first_run = [], None, None
        start = time.monotonic()
        min_runs = 2 if (trace or corrupt) else 1
        last = 0.0
        # start another run while it would end closer to `seconds` than not
        while len(runs) < min_runs or time.monotonic() - start + last / 2 < seconds:
            index = len(runs)
            began = time.monotonic()
            traced = trace and index % 2 == 1
            out = work / f"out-{index}"
            result = child(env, deadline, "pipeline", "--result", str(work / f"run-{index}.json"),
                           *(["--trace"] if traced else []), "--", *cli_args, "--out", str(out))
            result["traced"] = traced
            attempted += 1
            run_problems = []
            if result["rc"] != 0:
                run_problems.append(f"pipeline exited {result['rc']}: {result.get('error', '')}")
            module = result.get("module")
            if module and not Path(module).resolve().is_relative_to(root / "src"):
                run_problems.append(f"orbitroles imported from {module}, not from src/")
            if corrupt and index == 1:
                with open(out / "sweep.csv", "a", encoding="utf-8") as fh:
                    fh.write("\n")
            digests, output_problems = check_outputs(workload, out, reference)
            run_problems += output_problems
            if not run_problems:
                if reference is None:
                    reference = digests
                    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
                    first_run = {
                        "surrogate.holdout_accuracy":
                            manifest["parameters"]["surrogate_holdout_accuracy"],
                        "clustering.role_nmi": role_nmi(
                            inputs.truth, out / "roles_graphwave.csv"
                        ),
                        "io.bytes_written": sum(p.stat().st_size for p in out.iterdir()),
                    }
            else:
                failed += 1
                problems += [f"run {index}: {p}" for p in run_problems]
            runs.append(result)
            shutil.rmtree(out, ignore_errors=True)
            if not trace:
                setup.append(time_setup(env, deadline))
                probes.append(hostspeed.probe())
            last = time.monotonic() - began
        while not trace and len(setup) < (2 if workload.tiny else SETUP_PROBES):
            setup.append(time_setup(env, deadline))
        good = [r for r in runs if r["rc"] == 0]
        untraced = [r for r in good if not r["traced"]]
        traced_runs = [r for r in good if r["traced"]]
        if not untraced or first_run is None or (trace and not traced_runs):
            raise RuntimeError("no successful pipeline run: " + "; ".join(problems[:3]))

        if trace:
            metrics = {
                name: statistics.median(r["layers"][name] for r in traced_runs)
                for name in traced_runs[0]["layers"]
            }
            metrics["trace.overhead_s"] = statistics.median(
                r["pipeline_s"] for r in traced_runs
            ) - statistics.median(r["pipeline_s"] for r in untraced)
            metrics.update(first_run)
            spans_dir = root / ".perfbench_runs"
            spans_dir.mkdir(exist_ok=True)
            (spans_dir / f"{workload.name}-seed{seed}-spans.json").write_text(
                json.dumps(traced_runs[-1]["spans"]), encoding="utf-8"
            )
            units = PER_LAYER_UNITS
        else:
            metrics = {
                "pipeline_norm_s": statistics.mean(r["pipeline_s"] for r in untraced)
                * hostspeed.scale(probes),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
                "setup_s": statistics.median(setup) * hostspeed.scale(probes),
                "ok_share": 1.0 - failed / attempted,
            }
            units = END_TO_END_UNITS
        record = {
            "workload": workload.name,
            "inputs": inputs.stats,
            "pipeline_runs": len(runs),
            "pipeline_s_all": [r["pipeline_s"] for r in good],
            "pipeline_cpu_s_all": [r["cpu_s"] for r in good],
            "setup_s_all": setup,
            "probe_s_all": probes,
            "first_run": first_run,
            "output_sha256": reference,
            "environment": environment(root),
            "problems": problems,
        }
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_test(root: Path) -> int:
    """Tiny runs of every workload: each named metric is emitted with its unit,
    and a corrupted output digest counts as a failed run."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result, record = run_workload(WORKLOADS[name].as_tiny(), 1, 1, trace, root)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                failures.append(f"{name} trace={trace}: metrics/units differ: {got}")
            if not result["correct"]:
                failures.append(f"{name} trace={trace}: {record['problems']}")
            print(f"self-test {name} trace={trace}: {len(got)} metrics, "
                  f"correct={result['correct']}")
    result, _ = run_workload(WORKLOADS["planted-many"].as_tiny(), 1, 1, 0, root, corrupt=True)
    ok_share = result["metrics"]["ok_share"]["value"]
    if result["correct"] or result["failed"] < 1 or ok_share >= 1.0:
        failures.append(f"corrupted digest not counted: {result}")
    print(f"self-test corrupted digest: failed={result['failed']} ok_share={ok_share:.3f}")
    for line in failures:
        print("FAIL " + line)
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "orbitroles" / "cli.py").is_file():
        print(f"error: {root} holds no src/orbitroles; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result, record = run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace, root
        )
    except (RuntimeError, TimeoutError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
