"""The benchmark's calls into the package, checked with the test suite.

bench/run.py is loaded from its path, read-only (no bytecode is cached next
to it), and every op of each of its workloads, built for one seed with
bench/expected.json, runs once in process and must pass the benchmark's own
check.  So a change to the package that breaks a call the benchmark makes
(an option, a keyword, a field it reads) fails here, before a benchmark run
reports it as a failed op.
"""

import importlib.util
import json
import pathlib
import sys

RUN = pathlib.Path(__file__).parents[1] / "bench" / "run.py"


def test_every_benchmark_op_passes_the_benchmark_check(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_run", RUN)
    bench = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # dataclass resolves the module's string annotations through sys.modules.
    monkeypatch.setitem(sys.modules, spec.name, bench)
    spec.loader.exec_module(bench)
    expected = json.loads(bench.EXPECTED_PATH.read_text())
    assert sorted(bench.BUILDERS) == sorted(bench.WORKLOADS)
    for workload in bench.WORKLOADS:
        ops = bench.BUILDERS[workload](1, expected)
        assert ops, workload
        for op in ops:
            assert op.check(op.run()) is None, (workload, op.label)
