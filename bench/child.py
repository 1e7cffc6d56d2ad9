"""Fresh-interpreter entry points of the benchmark.

    python bench/child.py setup <workload>   # first op; input marshalled on stdin
    python bench/child.py cli <argv...>      # one traced parascale CLI call

``setup`` runs the op twice, then the calibration kernel, and prints
``<input s> <cold s> <warm s> <calibration s> <peak KiB>``: the CPU time
spent reading the input and loading this benchmark's op code, the process's
CPU time from its start to the first op's result, the CPU time of the same
op run again, the mean CPU time of one calibration kernel, and the peak RSS
when the first op ended.  The caller subtracts the input and warm times and
the bare-interpreter floor from the cold time to get the program's set-up
time, and scales that by the calibration time.  The first op's output
follows that line, pickled, for the caller to check.

``cli`` behaves like ``python -m parascale.cli <argv...>`` on stdout and in
its exit code.  It records spans around the import of ``parascale.cli``,
``cli.main`` and the calls ``cli`` makes into the other layers, and writes
them as one JSON object after a marker on the last line of stderr.

Peak RSS is the kernel's VmHWM of this process: ``ru_maxrss`` would also
count the memory of the process that started this one, which Linux carries
across fork and exec.

Only ``sys``, ``marshal`` and ``time``, which every interpreter has loaded
already, are imported before the program.
"""

import marshal
import sys
from time import perf_counter, process_time

CALIBRATION_REPS = 5


def peak_rss_kib() -> int:
    """Peak RSS of this interpreter alone (an upper bound without procfs)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def setup(workload: str) -> int:
    start = process_time()
    first_input = marshal.loads(sys.stdin.buffer.read())
    from ops import OPS, calibration_kernel
    op = OPS[workload]()
    loaded = process_time()
    op.setup()
    out = op(first_input)
    cold = process_time()
    peak_kib = peak_rss_kib()
    warm = process_time()
    op(first_input)
    warm = process_time() - warm
    calibration = process_time()
    for _ in range(CALIBRATION_REPS):
        calibration_kernel()
    calibration = (process_time() - calibration) / CALIBRATION_REPS
    import pickle
    payload = pickle.dumps(out)
    sys.stdout.write(f"{loaded - start!r} {cold!r} {warm!r} {calibration!r} "
                     f"{peak_kib}\n")
    sys.stdout.flush()
    sys.stdout.buffer.write(payload)
    return 0


def traced_cli(argv: list[str]) -> int:
    start = perf_counter()
    import parascale.cli as cli
    imported = perf_counter()
    modules_loaded = len(sys.modules)

    import json
    from parascale import ingest
    from tracing import TRACE_MARKER, Tracer

    tracer = Tracer()
    tracer.record("cli.import", start, imported)
    targets = [
        (cli, "build_parser", "cli.build_parser"),
        (cli, "parse_flops", "units.parse_flops"),
        (cli, "peak_point", "contributions.peak_point"),
        (cli, "rmax_of_rpeak", "contributions.rmax_of_rpeak"),
        (cli, "alpha_from_measurement", "model.alpha_from_measurement"),
        (ingest, "load_bundled", "ingest.load_bundled"),
        (ingest, "parse_records", "ingest.parse_records"),
        (ingest, "timeline", "ingest.timeline"),
    ]
    try:
        with tracer.patched(targets):
            code = tracer.wrap(cli.main, "cli.main")(argv)
    finally:
        sys.stdout.flush()
        spans = [span[1:] for span in tracer.spans]   # drop the op id
        sys.stderr.write(TRACE_MARKER + json.dumps(
            {"spans": spans, "modules_loaded": modules_loaded}) + "\n")
    return code


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    sys.exit(setup(*args) if mode == "setup" else traced_cli(args))
