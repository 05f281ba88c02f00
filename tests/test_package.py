"""The package's structure: its import graph, and the one reader of prefix text."""

import ast
import collections
import json
import os
import subprocess
import sys
from pathlib import Path

import rpkiaudit
from e2e_support import e2e_config
from rpkiaudit.cli import STAGES


def child_env(**changes):
    """The environment of a child interpreter: this checkout's package first on its path."""
    env = dict(os.environ, **changes)
    src = str(Path(rpkiaudit.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def modules_after(code):
    """The module names in sys.modules of a fresh interpreter once it has run the code."""
    code += "\nimport sys\nprint(*sorted(sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


def test_library_import_loads_no_cli_or_dns_client():
    # the package re-exports nothing, so a library module pulls in neither
    # the pipeline driver nor the DNS wire client
    loaded = modules_after("import rpkiaudit.rib_store")
    assert "rpkiaudit.rib_store" in loaded
    assert {"rpkiaudit.cli", "rpkiaudit._dnswire"} & loaded == set()


def package(*names):
    return {f"rpkiaudit.{name}" for name in names}


STAGE_MODULES = {stage: f"rpkiaudit.stages.{stage}" for stage in STAGES}

# What each stage child must not load, besides every other stage's module: a
# stage module imports only the library modules its stage uses, and only the
# live resolver loads the DNS client and threads, and only a fixture out of turn
# order loads the merge sort.  Validate reads integer pairs, so it loads no RIB
# decoder, and counts its states with the class rule of vocabulary, so it loads
# no analytics or fractions; analyze and report count validated.jsonl's state
# strings, so they load no validation or routing code; classify reads the
# resolved and pairs rows, so it loads no resolver, RIB or coverage code, and
# its shares are int divisions, so it loads no fractions, and the e2e registry has
# no CSV line, so it loads no csv; report counts pairs and builds no Fraction.  No
# stage loads logging (the stage lines are plain stderr writes) or dataclasses, which
# loads inspect (the records are NamedTuples): each costs every child's start.
NO_VALIDATION = package("roa_validation", "rib_store") | {"gzip", "csv"}
LEAN_START = {"logging", "dataclasses", "inspect"}
NOT_LOADED = {
    stage: modules | LEAN_START
    for stage, modules in {
        "map": package("analytics", "cdn_classifier", "dns_resolution", "_dnswire"),
        "validate": package(
            "analytics", "cdn_classifier", "dns_resolution", "_dnswire", "rib_store"
        ) | {"gzip", "fractions", "decimal"},
        "analyze": package("cdn_classifier", "dns_resolution", "_dnswire", "domain_ingest")
        | NO_VALIDATION,
        "report": package("cdn_classifier", "dns_resolution", "_dnswire", "domain_ingest")
        | NO_VALIDATION | {"fractions", "decimal"},
        "resolve": package("_dnswire", "_merge_sort") | {"concurrent.futures"},
        "classify": package(
            "_dnswire", "roa_validation", "rib_store", "dns_resolution", "analytics"
        ) | {"concurrent.futures", "fractions", "decimal", "csv"},
    }.items()
}


def test_cli_import_loads_no_stage_module():
    loaded = modules_after("import rpkiaudit.cli")
    assert "rpkiaudit.cli" in loaded
    unwanted = package("analytics", "cdn_classifier", "dns_resolution", "_dnswire")
    unwanted |= {"rpkiaudit.stages", *STAGE_MODULES.values()}
    assert (unwanted | {"concurrent.futures", "fractions"}) & loaded == set()


def test_help_loads_no_stage_or_heavy_module():
    # the bench's setup_s path: python -m rpkiaudit --help, compiling from source;
    # -X importtime names each module the child imports on stderr
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rpkiaudit", "--help"],
        capture_output=True, text=True, env=child_env(PYTHONDONTWRITEBYTECODE="1"), timeout=60,
    )
    assert result.returncode == 0 and "usage: rpkiaudit" in result.stdout, result.stderr
    loaded = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()}
    assert "rpkiaudit.cli" in loaded
    assert (LEAN_START | {"rpkiaudit.stages"}) & loaded == set()


def test_each_stage_loads_only_its_own_modules(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(vars(e2e_config(tmp_path / "out"))))
    for stage in STAGES:  # each in its own child, in pipeline order, on the e2e fixture
        loaded = modules_after(
            "from rpkiaudit.cli import main\n"
            f"if main([{stage!r}, '--config', {str(config)!r}]) != 0:\n"
            f"    raise SystemExit('{stage} failed')"
        )
        assert "rpkiaudit.cli" in loaded
        assert NOT_LOADED[stage] & loaded == set(), stage
        assert {m for m in loaded if m.startswith("rpkiaudit.stages.")} == {STAGE_MODULES[stage]}


def uses_outside_the_codec(names):
    """Each import or call of the named ipaddress functions in a module but _prefix_index."""
    package = Path(rpkiaudit.__file__).parent
    uses = []
    for path in sorted(package.rglob("*.py")):
        if path.name == "_prefix_index.py":
            continue
        where = path.relative_to(package)
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "ipaddress":
                uses += [f"{where}: from ipaddress import {a.name}" for a in node.names
                         if a.name in names]
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in names:
                    uses.append(f"{where}:{node.lineno}: {name}()")
    return uses


def test_only_the_codec_parses_address_text():
    # _prefix_index is the one reader of prefix and address text; every other
    # module goes through its codec rather than ipaddress.ip_address/ip_network
    assert uses_outside_the_codec({"ip_address", "ip_network"}) == []


def test_only_the_codec_builds_ipaddress_objects():
    # every other module carries addresses and prefixes as integers
    names = {"IPv4Address", "IPv6Address", "IPv4Network", "IPv6Network"}
    assert uses_outside_the_codec(names) == []


def test_only_cli_and_the_sort_open_files():
    # a stage opens every file it reads or writes through cli (_open_input, _Outputs),
    # where a path that cannot be opened exits 2 naming it; the merge sort opens its
    # own run files, in a directory resolve has made
    package = Path(rpkiaudit.__file__).parent
    opens = []
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package)
        if str(where) in ("cli.py", "_merge_sort.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "open":
                    opens.append(f"{where}:{node.lineno}: {ast.unparse(func)}()")
    assert opens == []


def test_only_cli_moves_or_removes_files():
    # the driver commits every stage's outputs at once (cli._Outputs), so no other
    # module replaces, renames or removes a file, but the merge sort its own run files;
    # and no stage imports the per-file writers that came before the commit
    package = Path(rpkiaudit.__file__).parent
    moves, writers = [], []
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package)
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner, name = ast.unparse(node.func.value), node.func.attr
                if name in {"rename", "unlink"} or (owner == "os" and name == "replace"):
                    moves.append(f"{where}:{node.lineno}: {ast.unparse(node.func)}()")
            if isinstance(node, ast.ImportFrom) and where.parts[0] == "stages":
                writers += [f"{where}: {a.name}" for a in node.names if a.name in
                            {"_replacing", "_write_text", "_write_rows", "_write_diag"}]
    assert [m for m in moves if not m.startswith(("cli.py:", "_merge_sort.py:"))] == []
    assert writers == []


def test_stages_read_only_the_rows_they_are_handed():
    # the driver opens every upstream artifact and hands each stage its readers, so no
    # stage names cli's artifact readers, nor any stage's output but its own
    stages = Path(rpkiaudit.__file__).parent / "stages"
    trees = {path.name: ast.parse(path.read_text("utf-8")) for path in sorted(stages.glob("*.py"))}
    outputs = {  # the names each stage writes or removes through out
        where: {call.args[0].value for call in ast.walk(tree) if isinstance(call, ast.Call)
                and ast.unparse(call.func) in {"out.write", "out.remove"}
                and isinstance(call.args[0], ast.Constant)}
        for where, tree in trees.items()
    }
    found = []
    for where, tree in trees.items():
        found += [f"{where}: {name}" for name in sorted(set(names_in(tree)) & {
            "_artifact", "_primary_resolver", "_jsonl_rows"})]
        others = set().union(*outputs.values()) - outputs[where]
        found += [f"{where}:{node.lineno}: {node.value!r}" for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in others]
    assert found == []


def names_in(node):
    """Each name a node's code mentions: variables, attributes, imported names, and
    the names in annotations written as strings."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.alias):
            yield child.name
        annotation = getattr(child, "annotation", None) or getattr(child, "returns", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            yield from names_in(ast.parse(annotation.value, mode="eval"))


def public(nodes):
    """The functions and classes among ``nodes`` whose names do not start with "_"."""
    return [n for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))
            and not n.name.startswith("_")]


def test_every_public_name_is_used_or_checked():
    # a top-level function or class, or a method or property of a public class,
    # that only tests call is a second entry point the stages do not run; it must be
    # named in src outside its own definition, or be imported (a member: read as an
    # attribute) by the acceptance checks
    package = Path(rpkiaudit.__file__).parent
    trees = [ast.parse(path.read_text("utf-8")) for path in sorted(package.rglob("*.py"))]
    mentions = collections.Counter(name for tree in trees for name in names_in(tree))
    acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text("utf-8"))
    imported = {alias.name for node in ast.walk(acceptance) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    read = {node.attr for node in ast.walk(acceptance) if isinstance(node, ast.Attribute)}
    unused = []
    for tree in trees:
        for node in public(tree.body):
            members = public(node.body) if isinstance(node, ast.ClassDef) else []
            for definition, checked in [(node, imported), *((m, read) for m in members)]:
                name = definition.name
                if mentions[name] == collections.Counter(names_in(definition))[name] and (
                    name not in checked
                ):
                    unused.append(f"{node.name}.{name}" if definition is not node else name)
    assert sorted(unused) == []
