"""The README's Library block runs as documented.

It guards the documented API against signature changes.  Every line of
the README's CLI block, `shadow` included, already runs through
`cli.main` in `test_cli.test_readme_command_runs`, so it is not run here
a second time.
"""
from pathlib import Path


def test_library_block_runs(capsys, monkeypatch, tmp_path):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, "README.md (Library)", "exec"), namespace)
    assert namespace["result"].converged
    assert len(capsys.readouterr().out.splitlines()) == 2
