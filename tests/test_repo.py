"""Repository checks: the git checkout's hygiene, README's code and the
package's imports."""

import ast
import dataclasses
import importlib.util
import inspect
import json
import re
import shlex
import shutil
import subprocess
import sys
from collections import Counter
from datetime import datetime, timedelta
from pathlib import Path

import pytest

import gdserve
from gdserve import ImpressionEvent, cli, dual, load_config
from gdserve.scenario import ScenarioSpec, demo_graph

ROOT = Path(__file__).resolve().parent.parent


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


def _in_checkout():
    if shutil.which("git") is None:
        return False
    top = _git("rev-parse", "--show-toplevel")
    return top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT


@pytest.mark.skipif(not _in_checkout(), reason="not run from a git checkout")
def test_no_tracked_file_is_gitignored():
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def test_readme_library_block_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)[1]
    graph = demo_graph()
    start = graph.contracts[0].start
    impressions = [ImpressionEvent(f"{n.id}-{h}", start + timedelta(hours=h), n.attributes)
                   for h in range(7 * 24) for n in graph.supply_nodes]
    ns = {"supply_nodes": graph.supply_nodes, "contracts": graph.contracts,
          "attrs": {"state": "CA", "age_bucket": "5"}, "ts": start, "u": 0.5,
          "impressions": impressions}
    exec(compile(block, "README.md#library", "exec"), ns)
    # demo_graph's plan serves a {CA, age 5} visit to "california" alone.
    assert ns["chosen"] == "california"
    assert [o.contract_id for o in ns["report"].outcomes] == ["males", "california", "age5"]


def test_readme_cli_commands_parse(tmp_path):
    # Every `gdserve ...` command of README's CLI block, with its `\`
    # continuations joined, parses; none is run.
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S)[1]
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("gdserve ")]
    parser = cli.build_parser()
    bad = []
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            bad.append(command)
    assert bad == []
    assert sorted({shlex.split(c)[1] for c in commands}) == \
        ["metrics", "plan", "scenario", "serve", "simulate"]
    # The config the block writes is one that `gdserve simulate` reads.
    config = tmp_path / "config.json"
    config.write_text(re.search(r"<<'EOF'\n(.*?\n)EOF\n", block, re.S)[1])
    assert load_config(config).feedback is not None


def test_package_imports_only_itself_and_the_standard_library():
    # `dependencies = []` in pyproject.toml: numpy is a test extra only.
    outside = []
    for path in sorted((ROOT / "src" / "gdserve").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno}: {name}" for name in names
                        if name.split(".")[0] not in {"gdserve", *sys.stdlib_module_names}]
    assert outside == []


# Names perfbench patches that gdserve does not have.  The benchmark skips
# a missing name, so its layer reads 0: `serve_hwm` has no caller in
# serving, and `simulate` never imports `effective_probs` by name.
MISSING_PATCH_TARGETS = {("hwm", "serve_hwm"), ("simulate", "effective_probs")}


def _perfbench_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_perfbench_patch_targets_exist():
    # perfbench's traced rounds wrap each listed function in its home module
    # and in every module listed as importing it by name; a name that has
    # moved would leave its layer silently at zero.
    spans = _perfbench_spans()
    missing = set()
    for home, func, importers in spans.SPANS + spans.AGGREGATES + spans.ITERATORS:
        for name in (home, *importers):
            if not hasattr(importlib.import_module(f"gdserve.{name}"), func):
                missing.add((name, func))
    assert missing == MISSING_PATCH_TARGETS


def test_every_perfbench_layer_records_calls(tmp_path):
    # A layer whose function keeps its name but is no longer called through
    # the patched module would read 0 calls: run every command the
    # benchmark's workloads run, traced, and count each layer's calls.
    spans = _perfbench_spans()
    scen, plan, config = tmp_path / "scen", tmp_path / "plan", tmp_path / "config.json"
    tracer = spans.Tracer("test")

    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0

    with spans.instrument(tracer):
        run("scenario", "--out-dir", scen, "--contracts", 5, "--days", 2,
            "--daily-traffic", 400, "--seed", 3)
        for algorithm in ("dual", "hwm"):
            run("plan", "--supply", scen / "supply.jsonl", "--contracts",
                scen / "contracts.jsonl", "--algorithm", algorithm, "--out", plan)
        run("serve", "--plan", plan, "--contracts", scen / "contracts.jsonl",
            "--impressions", scen / "impressions.jsonl", "--out", tmp_path / "decisions",
            "--workers", 1)
        for cfg in ({"algorithm": "hwm", "mode": "sampled", "reopt_period_hours": 2,
                     "forecast_error_multiplier": 2, "feedback": {}},
                    {"algorithm": "dual", "shards": 2}):
            config.write_text(json.dumps(cfg))
            run("simulate", "--config", config, "--scenario", scen,
                "--out-dir", tmp_path / "out", *["--baseline"] * (cfg["algorithm"] == "hwm"))
    calls = Counter()
    for rec in tracer.records:
        calls[rec["name"]] += rec.get("calls", 1)
    layers = sorted(f"{home}.{func}" for home, func, _ in
                    spans.SPANS + spans.AGGREGATES + spans.ITERATORS)
    # `hwm.serve_hwm` does not exist (MISSING_PATCH_TARGETS).
    assert [name for name in layers if not calls[name]] == ["hwm.serve_hwm"]


def test_derived_tables_stay_deleted(tmp_path):
    # The stream, the engine and the server keep no table that only
    # repeats data they hold: chunks' first keys, the contracts of the
    # graph.  The stream keeps no ids, which no engine step reads.
    simulate = gdserve.simulate
    assert not hasattr(simulate.PackedTimes(), "_firsts")
    assert not hasattr(simulate.Server(demo_graph()), "_contracts")
    for name in ("PackedIds", "_unpack", "_Chunked"):
        assert not hasattr(simulate, name), name
    path = tmp_path / "impressions.jsonl"
    simulate.save_impressions([ImpressionEvent("i1", datetime(2026, 3, 2), {})], path)
    assert not hasattr(simulate.load_impressions(path), "ids")


def test_deleted_knobs_and_wrappers_stay_deleted():
    # The solve's tolerance and sweep limit are the module's TOL and
    # MAX_SWEEPS, every scenario starts at scenario.START, and a contract's
    # penalty is read from the contract.
    assert list(inspect.signature(dual.solve_dual_offline).parameters) == ["graph"]
    assert "start" not in [f.name for f in dataclasses.fields(ScenarioSpec)]
    assert not hasattr(gdserve, "DualObjectiveSpec")
    assert not hasattr(dual, "DualObjectiveSpec")
