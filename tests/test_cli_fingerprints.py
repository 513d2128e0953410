"""tools/cli_fingerprints.py on a three-command subset of its list."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location("cli_fingerprints",
                                              Path(__file__).parents[1] / "tools" / "cli_fingerprints.py")
cli_fingerprints = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cli_fingerprints)

SUBSET = [["lqr", "--scenario", "two-input.json"],
          ["preview", "--scenario", "souza", "--N", "3"],
          # insulin's continuous pair is not controllable: an input error, exit code 1
          ["controllability", "--scenario", "insulin"]]


def test_two_listings_are_equal():
    first = cli_fingerprints.listing(SUBSET)
    assert cli_fingerprints.listing(SUBSET) == first
    assert [line.split(" ", 2)[1:] for line in first[:3]] == [
        ["0", "lqr --scenario two-input.json"],
        ["0", "lqr --scenario two-input.json --out out.csv"],
        ["0", "lqr --scenario two-input.json --out out.json --format json"]]
    assert [line.split(" ")[1] for line in first] == ["0"] * 6 + ["1"] * 3
    # console, CSV and JSON write different bytes; the failing runs write one message
    assert len({line.split(" ")[0] for line in first}) == 7


def test_an_edited_hash_names_its_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli_fingerprints, "COMMANDS", SUBSET)
    assert cli_fingerprints.main([]) == 0
    listing = capsys.readouterr().out.splitlines()
    reference = tmp_path / "reference.txt"
    reference.write_text("\n".join(listing) + "\n")
    assert cli_fingerprints.main(["--against", str(reference)]) == 0
    assert capsys.readouterr().err.splitlines() == [f"0 of 9 runs differ from {reference}"]

    _, code, argv = listing[4].split(" ", 2)
    edited = [*listing[:4], f"{'0' * 64} {code} {argv}", *listing[5:]]
    reference.write_text("\n".join(edited) + "\n")
    assert cli_fingerprints.main(["--against", str(reference)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "differs: preview --scenario souza --N 3 --out out.csv", f"1 of 9 runs differ from {reference}"]
