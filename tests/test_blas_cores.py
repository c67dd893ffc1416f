"""The platform facts and decoding contracts under every OpenBLAS core
(kernel set) this CPU can run.

``tests/test_platform.py`` pins properties of numpy's BLAS that the
exactness contracts stand on, and each property is a fact about one kernel
set. OpenBLAS built with ``DYNAMIC_ARCH`` picks its kernels at load time,
and ``OPENBLAS_CORETYPE`` forces a set for one process. This runs the
platform tests, and the decoding contracts that rest on them (a row's
decoded states and tokens do not depend on the other rows), in one
subprocess per core, so that they are known to hold on a machine that loads
any of them. It also runs the repro case under each core, and compares its
logs with that core's committed fixtures, as the acceptance suite's
reproducibility test, run under each core too, does.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

import pytest

from repro_case import blas_core, core_fixtures

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src"

# The CPU flags (as /proc/cpuinfo spells them) each core's kernels execute,
# and the names the corename reader may report for it: builds without
# DYNAMIC_OLDER run Prescott on the Katmai entry and name it so.
CORES = {
    "SkylakeX": ({"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"}, {"SkylakeX"}),
    "Haswell": ({"avx2", "fma"}, {"Haswell"}),
    "Sandybridge": ({"avx"}, {"Sandybridge"}),
    "Prescott": ({"pni"}, {"Prescott", "Katmai"}),
}

# Each script ends by printing the core it ran on.
RUN_TESTS = """
import sys
import pytest
from repro_case import blas_core
code = pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[1:]])
print("blas core:", blas_core())
sys.exit(code)
"""
RUN_REPRO = """
import sys
from repro_case import blas_core, main
code = main(sys.argv[1:])
print("blas core:", blas_core())
sys.exit(code)
"""


def _cpu_flags() -> set[str] | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return None


def _run_under(core: str, script: str, *args: str) -> str:
    """Run ``script`` on ``args`` in a subprocess forced onto ``core``, and
    return the name the core ran under; skip if the core cannot be forced
    or this CPU cannot run it."""
    if blas_core() == "unknown":
        pytest.skip("numpy's BLAS is not an OpenBLAS whose core can be read")
    flags = _cpu_flags()
    if flags is None:
        pytest.skip("no /proc/cpuinfo to read the CPU's features from")
    needs, names = CORES[core]
    if not needs <= flags:
        pytest.skip(f"this CPU lacks {', '.join(sorted(needs - flags))}, which {core}'s kernels use")
    env = dict(os.environ, OPENBLAS_CORETYPE=core, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))
    run = subprocess.run([sys.executable, "-c", script, *args],
                         cwd=TESTS.parent, env=env, capture_output=True, text=True, timeout=300)
    *_, last = run.stdout.splitlines() or [""]
    ran = last.removeprefix("blas core: ")
    assert ran in names, f"OPENBLAS_CORETYPE={core} ran on core {ran!r}, not {core}\n{run.stderr}"
    assert run.returncode == 0, f"{' '.join(args)} under {core}:\n{run.stdout}{run.stderr}"
    return ran


@pytest.mark.parametrize("core", sorted(CORES))
def test_platform_facts_hold_under_the_core(core):
    _run_under(core, RUN_TESTS, str(TESTS / "test_platform.py"))


@pytest.mark.parametrize("core", sorted(CORES))
def test_decode_contracts_hold_under_the_core(core):
    _run_under(core, RUN_TESTS, str(TESTS / "test_generate.py"), "-k",
               "decode_step or one_example_decode or do_not_depend")


@pytest.mark.parametrize("core", sorted(CORES))
def test_repro_logs_match_the_fixtures_of_the_core(core, tmp_path):
    """``tests/repro_case.py`` under each core writes that core's committed
    logs byte for byte."""
    ran = _run_under(core, RUN_REPRO, str(tmp_path))
    fixtures = core_fixtures(ran)
    missing = [fixture.name for fixture in fixtures if not fixture.exists()]
    if missing:
        pytest.skip(f"core {ran} has no fixture {' or '.join(missing)}; "
                    f"OPENBLAS_CORETYPE={core} python3 tests/repro_case.py writes them")
    for fixture in fixtures:
        got, want = (tmp_path / fixture.name).read_bytes(), fixture.read_bytes()
        lines = zip_longest(got.splitlines(), want.splitlines())
        first = next((i for i, (a, b) in enumerate(lines, 1) if a != b), None)
        assert got == want, f"{fixture.name} under {core}: line {first} differs from the fixture"


@pytest.mark.parametrize("core", sorted(CORES))
def test_acceptance_reproducibility_passes_under_the_core(core):
    """The acceptance suite's reproducibility test compares the logs with
    the fixtures of the core that runs it."""
    _run_under(core, RUN_TESTS, str(TESTS / "test_acceptance.py"), "-k", "reproducibility")
