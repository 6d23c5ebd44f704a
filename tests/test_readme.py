"""The README's CLI quickstart, run as written: each ``$ bzfc ...`` line
through ``cli.main``, its standard output against the lines after it."""

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
