"""Run one entroscope command in this process and record its set-up time.

    python3 launch.py RECORD TRACE CLI-ARGS...

Set-up is the import of the package plus `cli.load_context`, which loads
the preset or config and validates the system.  With TRACE = 1 the
layers are wrapped first (see tracer.py) and the spans go into RECORD
as well.  The exit code is the command's.
"""

import json
import resource
import sys
import time


def peak_rss_mb():
    """High-water resident set of this program, in MB.

    VmHWM belongs to the address space made by exec; ru_maxrss can carry
    the parent's high-water mark over a vfork, so it is the fallback.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main():
    record, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    from entroscope import cli
    import_s = time.perf_counter() - t0
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    load = cli.load_context
    spent = []

    def timed_load_context(args):
        start = time.perf_counter()
        try:
            return load(args)
        finally:
            spent.append(time.perf_counter() - start)

    cli.load_context = timed_load_context
    code = cli.main(argv)
    sys.stdout.flush()
    doc = {"import_s": import_s, "load_context_s": sum(spent),
           "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        doc["spans"] = tracer.spans
    with open(record, "w") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
