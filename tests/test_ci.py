"""Repository checks that need no program run: the CI workflow runs the
tier-1 command that ROADMAP.md names and the benchmark's oracle checks,
the package parses as the lowest supported Python, the README's import
block imports, the package-data globs match every file under
src/twfediag/data, every exported name is used by the package or listed in
that block, every result field is read by the package, every name the
README lists as removed is gone, every
`module.name` it names elsewhere exists, the
installed script and `python -m twfediag.cli` start through one
function, every CLI option and choice is passed by some other test file,
every function the benchmark reads a span of exists, every
sweep fit runs under the benchmark's fit span, one function holds
the CSV writer, and the test oracles import from the package only the
panel class and the errors. Text and syntax-tree
matches, and one in-process sweep run, so no YAML parser is needed and
nothing under perfbench/ is run."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# span names the benchmark's per-layer table still reads but the package
# no longer has; their counters read 0 until the benchmark is updated
STALE_BENCHMARK_NAMES = {
    "lsq.solve_least_squares",
    "lsq.classical_covariance",
    "lsq.cluster_robust_covariance",
    "panel.apply_adoption_schedule",
}


def _workflow_commands() -> list:
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    return [line.split("run:", 1)[1].strip()
            for line in text.splitlines() if line.strip().startswith("run:")]


def test_workflow_runs_roadmap_tier1_command():
    roadmap = (ROOT / "ROADMAP.md").read_text(encoding="utf-8")
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap).group(1)
    assert tier1 in _workflow_commands()


def test_package_parses_as_lowest_supported_python():
    """The 3.10 CI job is the only run on the lowest requires-python, so
    catch newer syntax here, on any interpreter."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    lowest = re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()
    assert lowest == ("3", "10")
    sources = sorted((ROOT / "src" / "twfediag").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_workflow_matrix_includes_lowest_supported_python():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    lowest = re.search(r'requires-python = ">=(\d+\.\d+)"', pyproject).group(1)
    text = (ROOT / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    matrix = re.search(r"python-version: \[(.*)\]", text).group(1)
    assert lowest in re.findall(r'"([\d.]+)"', matrix)


def test_package_data_globs_cover_the_data_directory():
    """CI installs the package editable, so a wheel that dropped a data file
    would still pass: the `[tool.setuptools.package-data]` globs must match
    exactly the files under src/twfediag/data, each glob at least one."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = pyproject.split("\n[tool.setuptools.package-data]\n", 1)[1].split("\n[", 1)[0]
    globs = re.findall(r'"([^"]+)"', re.search(r"^twfediag\s*=\s*\[(.*)\]$", section,
                                                 re.MULTILINE).group(1))
    package = ROOT / "src" / "twfediag"
    matched = [set(package.glob(pattern)) for pattern in globs]
    assert all(matched), globs
    files = {path for path in (package / "data").rglob("*") if path.is_file()}
    assert package / "data" / "fpe_adoption_years.csv" in files
    assert set().union(*matched) == files


def test_workflow_runs_benchmark_oracle_checks():
    assert "python3 perfbench/run.py --report --seconds 5 --seed 5" in _workflow_commands()


def _library_surface() -> str:
    """README's "Library surface" import block."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library surface\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_library_surface_imports():
    block = _library_surface()
    assert "from twfediag import" in block
    exec(compile(block, "README.md", "exec"), {})


def test_every_exported_name_has_a_use():
    """Every name in twfediag.__all__ is read by the program or offered to
    users: a module of the package other than __init__.py refers to it (a
    name, an attribute or an import, so not by its own def or class), or
    README's "Library surface" imports it. A name that only the tests use
    belongs in the tests."""
    import twfediag

    used = set()
    for path in sorted((ROOT / "src" / "twfediag").glob("*.py")):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    used.update(alias.asname or alias.name for alias in node.names)
    surface = {alias.name for node in ast.walk(ast.parse(_library_surface()))
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {"fit_twfe", "generate_panel"} <= surface
    assert {"PanelDataset", "AdoptionSchedule", "TwfeFit"} <= used
    assert [name for name in twfediag.__all__ if name not in used | surface] == []


def _field_reads(source: str) -> set:
    """What a module's source reads of result fields: each attribute name
    read as x.name, each string element of a list or tuple literal (as
    getattr reads the sweep CSV's columns from SWEEP_HEADER), and
    "Class.name" for each self.name read in a class's body."""
    reads = set()

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                own = cls and isinstance(child.value, ast.Name) and child.value.id == "self"
                reads.add(f"{cls}.{child.attr}" if own else child.attr)
            elif isinstance(child, (ast.List, ast.Tuple)):
                reads.update(e.value for e in child.elts
                             if isinstance(e, ast.Constant) and isinstance(e.value, str))
            visit(child, child.name if isinstance(child, ast.ClassDef) else cls)

    visit(ast.parse(source), None)
    return reads


def test_every_result_field_is_read():
    """Every field of every dataclass that panel, twfe, diagnostics,
    robustness and synth define is read somewhere in the package, by
    _field_reads' rules: as x.name, as a string in a list or tuple
    literal, or as self.name in its own class. A field that only the tests
    read belongs in the tests."""
    assert _field_reads(
        "class A:\n    def f(self):\n        return self.kind, d.get('mode'), x.beta, ['col']\n"
    ) == {"A.kind", "get", "beta", "col"}  # no bare kind, so no other class's; no 'mode'
    read = set()
    for path in sorted((ROOT / "src" / "twfediag").glob("*.py")):
        read |= _field_reads(path.read_text(encoding="utf-8"))
    fields = []
    for name in ("panel", "twfe", "diagnostics", "robustness", "synth"):
        module = importlib.import_module(f"twfediag.{name}")
        fields += [f"{cls.__name__}.{field.name}" for cls in vars(module).values()
                   if isinstance(cls, type) and dataclasses.is_dataclass(cls)
                   and cls.__module__ == module.__name__ for field in dataclasses.fields(cls)]
    assert {"TwfeFit.beta", "SweepPoint.ci_low", "RobustnessSweep.skipped"} <= set(fields)
    assert [field for field in fields
            if field not in read and field.split(".")[1] not in read] == []


def _subcommands() -> dict:
    """The CLI's subcommand name -> its argument parser."""
    from twfediag.cli import build_parser

    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def test_every_cli_option_is_exercised_by_a_test():
    """Every option string of every subcommand (-h/--help aside) and every
    value an option's choices allow appears as a string literal in some
    other test file."""
    names = set()
    for parser in _subcommands().values():
        for action in parser._actions:
            if not isinstance(action, argparse._HelpAction):
                names.update(action.option_strings, map(str, action.choices or ()))
    assert {"--treat-from", "next-year", "--cluster", "none", "--horizons"} <= names
    tests = [path.read_text(encoding="utf-8") for path in sorted((ROOT / "tests").glob("*.py"))
             if path.name != Path(__file__).name]
    untested = {name for name in names
                if not any(f'"{name}"' in text or f"'{name}'" in text for text in tests)}
    assert untested == set()


def _removed_names() -> list:
    """The first backticked name of each bullet under "Removed public names"."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Removed public names\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"^- ", section, flags=re.MULTILINE)[1:]
    return [re.search(r"`([^`]+)`", bullet).group(1) for bullet in bullets]


def _resolves(name: str) -> bool:
    """Whether a README name exists: `twfediag.X` or `twfediag.lsq.X` in
    its module, a bare error name in twfediag.errors, or `Class.attr` of a
    public class (a class attribute or a dataclass field). For a call with
    keywords, `f(a=..., b=...)`, whether f exists and takes any of them.
    For a CLI option, `twfediag <command> --<option>`, whether the parser
    gives that subcommand that option."""
    option = re.fullmatch(r"twfediag ([\w-]+) (--[\w-]+)", name)
    if option:
        command = _subcommands().get(option.group(1))
        return command is not None and option.group(2) in command._option_string_actions
    call = re.fullmatch(r"([\w.]+)\((.*)\)", name)
    path = call.group(1) if call else name
    if path.startswith("twfediag."):
        parts = path.split(".")
        for i in range(len(parts), 0, -1):  # the longest prefix that is a module
            try:
                target = importlib.import_module(".".join(parts[:i]))
                break
            except ModuleNotFoundError:
                continue
        for part in parts[i:]:
            if not hasattr(target, part):
                return False
            target = getattr(target, part)
    elif "." in path:
        class_name, attr = path.split(".")
        cls = getattr(importlib.import_module("twfediag"), class_name)
        fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else ()
        return hasattr(cls, attr) or attr in fields
    else:
        return hasattr(importlib.import_module("twfediag.errors"), path)
    keywords = re.findall(r"(\w+)=", call.group(2)) if call else []
    return not keywords or any(k in inspect.signature(target).parameters for k in keywords)


def test_readme_removed_names_are_gone():
    names = _removed_names()
    assert "twfediag.residualize_treatment(ds)" in names and "TwfeFit.unit_effects" in names
    assert {"twfediag.twfe.EncodedSample", "twfediag.twfe.fit_sample(sample, keep, inference)",
            "twfediag.apply_adoption_schedule(include_adoption_period=...)",
            "twfediag.apply_adoption_schedule",
            "PanelDataset.from_observations", "EffectModel.effect",
            "twfediag.homogeneity_test(inference=...)", "twfediag.true_effect_summary",
            "twfediag.EffectSummary", "twfediag.spec_to_json", "TwfeFit.unit_effect",
            "TwfeFit.period_effect", "RobustnessSweep.baseline",
            "RobustnessSweep.kind", "AdoptionSchedule.by_row(dataset)"} <= set(names)
    for present in ("twfediag.fit_twfe",
                    "twfediag.lsq.standard_errors(X, residuals, bread, k, yy, inference, clusters)",
                    "TwfeFit.beta", "TwfeFit.p_value", "DegenerateGroup", "twfediag.errors.UnknownUnit",
                    "twfediag.load_panel_csv(treatment_col=...)", "twfediag estimate --cluster",
                    "PanelDataset.encode", "EffectModel.on_grid",
                    "twfediag jackknife --cluster", "twfediag weights --bins"):
        assert _resolves(present), present  # the check can see a name that exists
    for absent in ("twfediag estimate --bins", "twfediag fit --cluster"):
        assert not _resolves(absent), absent
    assert [name for name in names if _resolves(name)] == []


def _readme_module_names() -> list:
    """(module, name) of each backticked `module.name` or
    `twfediag.module.name` in README.md outside "Removed public names",
    where module is one of the package's modules."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    text = re.sub(r"\n## Removed public names\n.*?(?=\n## |\Z)", "\n", readme, flags=re.DOTALL)
    modules = sorted(path.stem for path in (ROOT / "src" / "twfediag").glob("*.py")
                     if path.stem != "__init__")
    return re.findall(r"`(?:twfediag\.)?(%s)\.(\w+)" % "|".join(modules), text)


def test_readme_module_names_exist():
    names = _readme_module_names()
    assert ("lsq", "standard_errors") in names and ("cli", "run") in names
    assert len(names) >= 7
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"twfediag.{module}"), name)]
    assert missing == []


def test_script_and_module_share_the_process_entry():
    """`[project.scripts] twfediag` and the `__main__` block of cli.py both
    call cli.run, which sets the process's collector policy."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r"^twfediag\s*=\s*(.*)$", scripts, re.MULTILINE) == ['"twfediag.cli:run"']
    tree = ast.parse((ROOT / "src" / "twfediag" / "cli.py").read_text(encoding="utf-8"))
    blocks = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert len(blocks) == 1
    assert [ast.unparse(node) for node in blocks[0].body] == ["sys.exit(run())"]


def _benchmark_span_names() -> set:
    """Keys of the incl[...], own[...] and counts["....calls"] lookups in
    perfbench/run.py, with f-string keys expanded over the tuple their
    comprehension iterates."""
    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"))
    expansions = {}  # id of an f-string node -> its values
    for node in ast.walk(tree):
        for gen in getattr(node, "generators", ()):
            if isinstance(gen.target, ast.Name) and isinstance(gen.iter, ast.Tuple):
                values = [e.value for e in gen.iter.elts]
                for sub in ast.walk(node):
                    if isinstance(sub, ast.JoinedStr):
                        expansions[id(sub)] = [
                            "".join(p.value if isinstance(p, ast.Constant) else v
                                    for p in sub.values)
                            for v in values
                        ]
    names = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id in ("incl", "own", "counts")):
            continue
        if isinstance(node.slice, ast.Constant):
            keys = [node.slice.value]
        elif isinstance(node.slice, ast.JoinedStr):
            keys = expansions[id(node.slice)]
        else:
            continue  # the accumulation loop's variable keys
        for key in keys:
            if node.value.id == "counts":
                if not key.endswith(".calls"):
                    continue  # a counter, not a function
                key = key[: -len(".calls")]
            if "." in key:
                names.add(key)
    return names


def test_benchmark_span_names_resolve():
    names = _benchmark_span_names()
    assert {"twfe.fit_twfe", "panel.PanelDataset.restrict",
            "robustness.leave_one_unit_out", "cli.main"} <= names
    unresolved = set()
    for name in names:
        layer, *path = name.split(".")
        target = importlib.import_module(f"twfediag.{layer}")
        for part in path:
            target = getattr(target, part, None)
        if not callable(target):
            unresolved.add(name)
    assert unresolved <= STALE_BENCHMARK_NAMES, sorted(unresolved - STALE_BENCHMARK_NAMES)


def test_sweep_points_run_under_the_benchmark_span(monkeypatch):
    """The benchmark times sweep fits through the twfe.fit_twfe span: each
    sweep fits every point, skipped or not, by that one function, and
    makes no other fit while some point can be fit."""
    import numpy as np

    from twfediag import robustness, schedule_from_data

    from conftest import random_panel

    assert "twfe.fit_twfe" in _benchmark_span_names()
    fit_twfe = robustness.fit_twfe
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fit_twfe(*args, **kwargs)

    monkeypatch.setattr(robustness, "fit_twfe", counting)
    _, dataset = random_panel(np.random.default_rng(63), missing=True, noise_sd=1.0)
    sweeps = {
        "end_year": lambda: robustness.sweep_end_year(dataset, dataset.periods[0],
                                                      dataset.periods[-1]),
        "post_horizon": lambda: robustness.sweep_post_horizon(
            dataset, schedule_from_data(dataset), [0, 1, 2, 4]),
        "leave_one_out": lambda: robustness.leave_one_unit_out(dataset,
                                                               schedule_from_data(dataset)),
    }
    for kind, run in sweeps.items():
        calls.clear()
        sweep = run()
        assert sweep.skipped or kind != "end_year"  # the first end year has one period
        assert len(calls) == len(sweep.points) + len(sweep.skipped), kind
        assert all(args[0] is dataset for args in calls), kind


def test_one_function_quotes_csv_cells():
    """Every CSV file is written by panel.write_csv, so the dialect is
    decided in one place: under src/, csv.writer is called only in
    panel._quoted, no module imports a name from csv, and cli.py imports
    neither csv nor itertools."""
    calls, from_csv = [], []
    for path in sorted((ROOT / "src" / "twfediag").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        from_csv += [path.name for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module == "csv"]
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls += [(path.name, function.name) for node in ast.walk(function)
                          if isinstance(node, ast.Call) and ast.unparse(node.func) == "csv.writer"]
        if path.name != "panel.py":
            assert "csv.writer" not in path.read_text(encoding="utf-8"), path.name
    assert calls == [("panel.py", "_quoted")]
    assert from_csv == []
    cli = ast.parse((ROOT / "src" / "twfediag" / "cli.py").read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(cli) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(cli)
                 if isinstance(node, ast.ImportFrom) and node.module and node.level == 0}
    assert not imported & {"csv", "itertools"}, imported


def test_oracles_import_only_the_panel_and_the_errors():
    """tests/oracles.py checks the package against code of its own: from
    twfediag it imports PanelDataset and names from twfediag.errors, and
    nothing else, so no oracle can reach a fast path it checks."""
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", alias.name) for alias in node.names]
    package = [(module, name) for module, name in imported if module.split(".")[0] == "twfediag"]
    assert ("twfediag", "PanelDataset") in package and ("twfediag.errors", "ParseError") in package
    assert [(module, name) for module, name in package
            if (module, name) != ("twfediag", "PanelDataset") and module != "twfediag.errors"] == []
