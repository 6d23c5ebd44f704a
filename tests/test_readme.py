"""The README's CLI quickstart and library example, run as written: each
``$ bzfc ...`` line through ``cli.main``, its standard output against the
lines after it, and each ``print`` of the example against its comment."""

import shlex
from pathlib import Path

from bzfc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> list[tuple[list[str], list[str]]]:
    """(command, printed lines) for each ``$`` line of the quickstart block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI quickstart", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    steps: list[tuple[list[str], list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ "):
            steps.append((shlex.split(line[2:], comments=True), []))
        elif steps:
            steps[-1][1].append(line)
    return [(argv, "\n".join(out).rstrip("\n").splitlines()) for argv, out in steps]


def test_quickstart_transcript(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    steps = quickstart()
    for argv, expected in steps:
        if argv[0] == "cat":
            (tmp_path / argv[1]).write_text("".join(line + "\n" for line in expected))
            continue
        assert argv[0] == "bzfc", argv
        redirect = argv.index(">") if ">" in argv else None
        code = main(argv[1:redirect])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        if redirect is None:
            assert out.splitlines() == expected, argv
        else:  # only the exit code is checked for output sent to a file
            assert expected == []
    assert sum(argv[0] == "bzfc" for argv, _ in steps) == 12


def test_library_use(capsys):
    # A print line's comment is its output, up to any ": " note.
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1].split(": ", 1)[0]
                for line in block.splitlines() if line.startswith("print(")]
    exec(block, {})
    assert capsys.readouterr().out.splitlines() == expected
    assert len(expected) == 8
