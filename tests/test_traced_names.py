"""The benchmark's traced pass wraps prbox functions by name, and reads the
import times of prbox and scipy.integrate; a renamed or removed function, or
an import dropped from prbox, breaks it.  Checked here against
perfbench/spans.py and perfbench/run.py, together with the rule that src/
holds only what the package, scripts/ or the traced pass use."""

import ast
import importlib
import importlib.util
import math
import types
from pathlib import Path

import prbox
from prbox import cli

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_wrapped_and_restored():
    spans = load_perfbench("spans")
    originals = {
        (mod, name): getattr(importlib.import_module(mod), name)
        for mod, name in spans.TRACED
    }
    with spans.Tracer().patched():
        for (mod, name), orig in originals.items():
            current = getattr(importlib.import_module(mod), name)
            assert current is not orig, f"{mod}.{name} not wrapped"
            assert current.__wrapped__ is orig
    for (mod, name), orig in originals.items():
        assert getattr(importlib.import_module(mod), name) is orig


def test_every_traced_name_but_postselected_probs_runs_in_prbox_sim(tmp_path, capsys):
    # each layer the traced pass reads is timed on the code a subcommand runs;
    # postselected_probs is wrapped only to count distinct scalar tables
    spans = load_perfbench("spans")
    configs = {
        "chsh": "r = 0, 1.5\n",
        "sweep": "r = 1\nsweep_steps = 5\n",
        "optimize": "r = 1\ntarget_fidelity = 0.9275\n",
        "mc": "r = 0.5\nmc_n = 2000\n",  # well over 100 kept events per setting
        "plan-frft": "",
    }
    tracer = spans.Tracer()
    with tracer.patched():
        for command, text in configs.items():
            path = tmp_path / f"{command}.cfg"
            path.write_text(text + "out_format = json\n")
            assert cli.main([command, "--config", str(path)]) == 0, capsys.readouterr().err
    names = [f"{mod.split('.')[1]}.{fn}" for mod, fn in spans.TRACED]
    assert [name for name in names if not tracer.calls[name]] == ["chsh.postselected_probs"]


def test_the_package_binds_its_modules_and_nothing_else():
    # each name has one home module; `import prbox` loads all five
    public = {name: value for name, value in vars(prbox).items()
              if not name.startswith("_")}
    assert all(isinstance(value, types.ModuleType) for value in public.values()), public
    assert {"chsh", "frft", "montecarlo", "optimize", "state"} <= public.keys()


def test_traced_pass_reads_both_import_times(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    times = load_perfbench("run").import_seconds()
    for key in ("setup.import_prbox_s", "setup.import_scipy_integrate_s"):
        assert math.isfinite(times[key]), key


def test_every_public_name_in_src_is_used_outside_the_tests():
    # a name counts as used where code (not a docstring) in src/ or scripts/
    # loads it, or where spans.TRACED wraps it; test oracles live in tests/
    defined, used = set(), {name for _, name in load_perfbench("spans").TRACED}
    for path in [*sorted((ROOT / "src" / "prbox").glob("*.py")),
                 *sorted((ROOT / "scripts").glob("*.py"))]:
        tree = ast.parse(path.read_text(), str(path))
        if path.parent.name == "prbox":
            defined |= {f"{path.stem}.{node.name}" for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")}
        used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert sorted(n for n in defined if n.split(".")[1] not in used) == []
