"""The package's structure: its import graph, and the one reader of prefix text."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import rpkiaudit


def test_library_import_loads_no_cli_or_dns_client():
    # the package re-exports nothing, so a library module pulls in neither
    # the pipeline driver nor the DNS wire client
    env = dict(os.environ)
    src = str(Path(rpkiaudit.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, rpkiaudit.rib_store; "
        "print(sorted({'rpkiaudit.cli', 'rpkiaudit._dnswire'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def uses_outside_the_codec(names):
    """Each import or call of the named ipaddress functions in a module but _prefix_index."""
    package = Path(rpkiaudit.__file__).parent
    uses = []
    for path in sorted(package.glob("*.py")):
        if path.name == "_prefix_index.py":
            continue
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "ipaddress":
                uses += [f"{path.name}: from ipaddress import {a.name}" for a in node.names
                         if a.name in names]
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name in names:
                    uses.append(f"{path.name}:{node.lineno}: {name}()")
    return uses


def test_only_the_codec_parses_address_text():
    # _prefix_index is the one reader of prefix and address text; every other
    # module goes through its codec rather than ipaddress.ip_address/ip_network
    assert uses_outside_the_codec({"ip_address", "ip_network"}) == []


def test_only_the_codec_builds_ipaddress_objects():
    # every other module carries addresses and prefixes as integers
    names = {"IPv4Address", "IPv6Address", "IPv4Network", "IPv6Network"}
    assert uses_outside_the_codec(names) == []
