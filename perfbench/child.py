"""One benchmark pass in a fresh interpreter.

    python3 child.py '{"src": ..., "mode": "setup" | "pass", ...}'

Measures ``setup_s`` (import ``twpc.cli`` and build its parser) first, so
nothing heavy may be imported above that point.  In "pass" mode it then
writes the workload's seeded inputs, runs its CLI invocations in-process
(traced when asked), gates the outputs and prints one JSON line.  With
"sample" set, both regions are timed under the host-speed sampler and
reported raw and normalised (see ``hostspeed.py``).
"""

import json
import os
import resource
import sys
import time

from hostspeed import Sampler


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _tree_bytes(root) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def _normalised(sampler, **regions) -> dict:
    """<name>_s (raw, sampler time taken out) and <name>_norm_s per region."""
    out = {"reference_s": sampler.reference()}
    for name, (t0, t1) in regions.items():
        out[f"{name}_s"], out[f"{name}_norm_s"] = sampler.measure(t0, t1)
    return out


def main(cfg: dict) -> dict:
    sys.path.insert(0, cfg["src"])
    sampler = Sampler() if cfg.get("sample") else None
    if sampler:
        sampler.start()
    t0 = time.perf_counter()
    import twpc.cli
    twpc.cli.build_parser()
    t1 = time.perf_counter()
    result = {"setup_s": t1 - t0}
    if cfg["mode"] == "setup":
        if sampler:
            sampler.stop()
            result.update(_normalised(sampler, setup=(t0, t1)))
        return result

    import numpy
    import scipy
    from tracing import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[cfg["workload"]](cfg["seed"], cfg["work"],
                                    cfg.get("threads", 1))
    wl.prepare()
    tracer = Tracer() if cfg.get("trace") else None
    if tracer:
        tracer.install()
    cpu0 = _cpu_s()
    t_start = time.perf_counter()
    wl.run(twpc.cli.main)
    t_end = time.perf_counter()
    cpu = _cpu_s() - cpu0
    wall = t_end - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    if sampler:
        sampler.stop()
        result.update(_normalised(sampler, setup=(t0, t1),
                                  wall=(t_start, t_end)))
        wall = result["wall_s"]
    attempted, failed, problems = wl.gate()
    result.update(
        wall_s=wall, cpu_s=cpu, peak_rss_mb=peak_rss_mb,
        attempted=attempted, failed=failed, problems=problems,
        output_bytes=sum(_tree_bytes(wl.out(k)) for k in wl.exit_codes),
        versions={"python": sys.version.split()[0],
                  "numpy": numpy.__version__, "scipy": scipy.__version__})
    if tracer:
        result["layers"] = {k: v.to_json()
                            for k, v in tracer.metrics(wall).items()}
        result["absent"] = tracer.absent
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
