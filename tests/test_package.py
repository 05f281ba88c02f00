"""The package's import graph: importing one module loads only what it uses."""

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
