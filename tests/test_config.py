"""The run configuration: one knob table, one precedence rule.

Parametrized over :data:`repro.config.KNOBS`, so a knob added to the table
is covered (or fails for want of a probe row) without a new test: explicit
argument > ``$REPRO_*`` > default, off-spellings at either tier, the
environment read at construction rather than import, malformed ambient
values named in the error.  The drift tests keep the table, the docs, the
CI workflow, the benchmark's scrub list and the CLI's flag definitions
saying the same thing.  Grammar assertions live with each subsystem's tests.
"""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from repro import config
from repro.machine import LocalExecutor, Machine

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _describe(value):
    return value if value is None else value.describe()


#: per knob: how to read the resolved value off a Machine, an environment
#: spec with the value it resolves to, and an explicit argument with its
#: value (``check_dir`` has no Machine keyword: it is read through ambient)
PROBES = {
    "faults": (
        lambda m: _describe(m.faults),
        ("seed:9,crash:0.25", "seed:9,crash:0.25"),
        ("seed:1,tear:0.5", "seed:1,tear:0.5"),
    ),
    "check": (
        lambda m: _describe(m.check),
        ("sample:7", "sample:7"),
        ("full", "full"),
    ),
    "check_dir": (None, ("/tmp/ambient", "/tmp/ambient"), ("/tmp/arg", "/tmp/arg")),
    "elastic": (lambda m: m.elastic, ("on", True), (True, True)),
    "memory_words": (lambda m: m.memory_words, ("20000", 20000), (12345, 12345)),
    "spill_dir": (
        lambda m: m.memory.spill_dir,
        ("/tmp/ambient", "/tmp/ambient"),
        ("/tmp/arg", "/tmp/arg"),
    ),
}

KNOB_NAMES = sorted(config.KNOBS)


@pytest.fixture(autouse=True)
def _bare_environment(monkeypatch):
    """Start every test with no knob set (CI legs run the suite under some)."""
    for knob in config.KNOBS.values():
        monkeypatch.delenv(knob.env, raising=False)


def _resolved(name, explicit=None):
    read = PROBES[name][0]
    if read is None:
        return config.ambient(name, explicit)
    return read(Machine(2, **{name: explicit}))


def _off_id(spelling: str) -> str:
    return spelling.strip() or "empty"


def test_every_knob_has_a_probe():
    assert set(PROBES) == set(config.KNOBS)
    assert len(config.KNOBS) == 6


@pytest.mark.parametrize("name", KNOB_NAMES)
class TestPrecedence:
    def test_default(self, name):
        assert _resolved(name) is None

    def test_env_beats_default(self, name, monkeypatch):
        spec, value = PROBES[name][1]
        monkeypatch.setenv(config.KNOBS[name].env, spec)
        assert _resolved(name) == value

    def test_explicit_beats_env(self, name, monkeypatch):
        monkeypatch.setenv(config.KNOBS[name].env, PROBES[name][1][0])
        spec, value = PROBES[name][2]
        assert _resolved(name, spec) == value

    @pytest.mark.parametrize("off", config.OFF, ids=_off_id)
    def test_explicit_off_beats_env(self, name, off, monkeypatch):
        monkeypatch.setenv(config.KNOBS[name].env, PROBES[name][1][0])
        assert _resolved(name, off) is None

    @pytest.mark.parametrize("off", [*config.OFF, " OFF "], ids=_off_id)
    def test_env_off_spelling_is_the_default(self, name, off, monkeypatch):
        monkeypatch.setenv(config.KNOBS[name].env, off)
        assert _resolved(name) is None

    def test_env_read_at_construction_not_import(self, name, monkeypatch):
        spec, value = PROBES[name][1]
        assert _resolved(name) is None
        monkeypatch.setenv(config.KNOBS[name].env, spec)
        assert _resolved(name) == value
        monkeypatch.delenv(config.KNOBS[name].env)
        assert _resolved(name) is None


@pytest.mark.parametrize(
    "name, bad",
    [
        ("memory_words", "abc"),
        ("memory_words", "-5"),
        ("check", "verbose"),
        ("elastic", "parity"),
        ("faults", "frobnicate:1"),
    ],
)
def test_malformed_env_names_the_variable_and_grammar(name, bad, monkeypatch):
    knob = config.KNOBS[name]
    monkeypatch.setenv(knob.env, bad)
    with pytest.raises(ValueError) as err:
        _resolved(name)
    assert f"${knob.env}={bad!r}" in str(err.value)
    assert knob.grammar in str(err.value)


def test_explicit_argument_errors_do_not_blame_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK", "full")
    with pytest.raises(ValueError, match="unknown check spec 'turbo'") as err:
        Machine(2, check="turbo")
    assert "REPRO_CHECK" not in str(err.value)
    with pytest.raises(ValueError, match="memory_words must be positive, got 0"):
        Machine(2, memory_words=0)


def test_local_execution_is_not_configurable(monkeypatch):
    """One way to run a rank's local work: no keyword, no variable."""
    with pytest.raises(TypeError, match="executor"):
        Machine(4, executor="thread")
    # not in the table, so never read: config.ambient is the only reader of
    # os.environ (test_only_config_reads_the_environment)
    monkeypatch.setenv("REPRO_EXECUTOR", "thread:x")
    assert type(Machine(4).executor) is LocalExecutor


def test_engine_takes_the_level_the_machine_resolved(monkeypatch):
    from repro.check import CheckedEngine
    from repro.dist import DistributedEngine

    machine = Machine(2)  # resolved with checking off …
    monkeypatch.setenv("REPRO_CHECK", "full")  # … so a later change is not seen
    assert not isinstance(DistributedEngine(machine), CheckedEngine)
    assert isinstance(DistributedEngine(Machine(2)), CheckedEngine)


# ---------------------------------------------------------------------------
# drift: the table is the only place a knob is declared
# ---------------------------------------------------------------------------


def _repro_names(path) -> set[str]:
    names: set[str] = set()
    for file in sorted(path.rglob("*")) if path.is_dir() else [path]:
        if file.suffix in (".py", ".md", ".yml"):
            names |= set(re.findall(r"\bREPRO_[A-Z_]+\b", file.read_text()))
    return names


def test_environment_names_match_the_table_everywhere():
    table = {knob.env for knob in config.KNOBS.values()}
    for where in (
        ROOT / "src",
        ROOT / "README.md",
        ROOT / "docs",
        ROOT / ".github" / "workflows" / "ci.yml",
    ):
        assert _repro_names(where) <= table, where
    assert _repro_names(ROOT / "src" / "repro" / "config.py") == table
    assert _repro_names(ROOT / "docs" / "api.md") == table
    # the benchmark scrubs every ambient knob (read-only check of its list,
    # which may outlive a knob: the harness is frozen between benchmark PRs)
    run_py = (ROOT / "benchmarks" / "e2e" / "run.py").read_text()
    scrub = re.search(r"SCRUBBED_ENV = \((.*?)\)", run_py, re.S).group(1)
    assert set(re.findall(r"REPRO_[A-Z_]+", scrub)) >= table


def test_every_cited_results_file_is_committed():
    results = ROOT / "benchmarks" / "results"
    docs = [ROOT / name for name in ("README.md", "EXPERIMENTS.md", "DESIGN.md")]
    missing = {
        f"{doc.name}: {cited}"
        for doc in [*docs, *sorted((ROOT / "docs").glob("*.md"))]
        for cited in re.findall(r"\bresults/([\w.*-]+\.\w+)", doc.read_text())
        if not list(results.glob(cited))
    }
    assert not missing


def test_only_config_reads_the_environment():
    readers = [
        str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
        if "os.environ" in path.read_text() or "getenv" in path.read_text()
    ]
    assert readers == ["src/repro/config.py"]


def test_docs_configuration_table_is_the_knob_table():
    text = (ROOT / "docs" / "api.md").read_text()
    section = text.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [
        tuple(
            cell.strip().strip("`")
            for cell in re.split(r"(?<!\\)\|", line.strip().strip("|"))
        )
        for line in section.splitlines()
        if line.startswith("| `")
    ]
    assert rows == [
        (
            knob.name,
            knob.env,
            knob.flag or "—",
            "off",
            knob.grammar.replace("|", "\\|"),
            knob.help,
        )
        for knob in config.KNOBS.values()
    ]


def test_each_run_flag_is_defined_once():
    source = "".join(
        path.read_text() for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
    )
    flags = [knob.flag for knob in config.KNOBS.values() if knob.flag]
    for flag in [*flags, "--deadline", "--checkpoint", "--policy"]:
        assert source.count(f'"{flag}"') == 1, flag


def test_every_exported_name_resolves():
    """What lint's F822 would say (``ruff`` is not installed offline): a
    name left in an ``__all__`` after its definition was deleted."""
    import importlib
    import pkgutil

    import repro

    modules = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    dangling = []
    for module in map(importlib.import_module, modules):
        dangling += [
            f"{module.__name__}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not dangling


def test_no_scipy_on_the_run_path(tmp_path):
    """Every run pays for what ``import repro`` loads, and its peak memory
    is read before the oracles run: the library's modules and a ``repro bc``
    run load no scipy.  The oracles and graph statistics that need it
    (``scipy.sparse``, and ``csgraph`` with the ``scipy.linalg`` it loads)
    import it themselves, and still work when called first."""
    graph = tmp_path / "g.txt"
    graph.write_text("0 1 1\n1 2 1\n0 3 1\n3 2 1\n2 4 1\n4 5 3\n3 5 1\n")
    script = (
        "import json, sys\n"
        "import repro, repro.core, repro.dist, repro.machine, repro.spgemm.selector\n"
        "import repro.graphs, repro.baselines, repro.serve, repro.serve.loadgen\n"
        "from repro.cli import main\n"
        "path = sys.argv[1]\n"
        "assert main(['bc', path, '-o', path + '.scores']) == 0\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
        "g = repro.graphs.read_edgelist(path)\n"
        "dist, sigma = repro.baselines.dijkstra_sssp(g, 0)\n"
        "print(json.dumps({\n"
        "    'bc': [float(x) for x in open(path + '.scores').read().split()],\n"
        "    'brandes': repro.baselines.brandes_bc(g).tolist(),\n"
        "    'dist': dist.tolist(), 'sigma': sigma.tolist(),\n"
        "    'diameter': g.diameter_hops(), 'csgraph': 'scipy.sparse.csgraph' in sys.modules,\n"
        "}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(graph)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    assert got == {
        "bc": [2.0, 2.0, 9.0, 9.0, 0.0, 0.0],
        "brandes": [2.0, 2.0, 9.0, 9.0, 0.0, 0.0],
        "dist": [0.0, 1.0, 2.0, 1.0, 3.0, 2.0],
        "sigma": [1.0, 1.0, 2.0, 1.0, 2.0, 1.0],
        "diameter": 3,
        "csgraph": True,
    }
