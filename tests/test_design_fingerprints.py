"""tools/design_fingerprints.py on the first three plants of one seed."""

import functools
import importlib.util
import sys
from pathlib import Path

spec = importlib.util.spec_from_file_location("design_fingerprints",
                                              Path(__file__).parents[1] / "tools" / "design_fingerprints.py")
design_fingerprints = importlib.util.module_from_spec(spec)
spec.loader.exec_module(design_fingerprints)


def test_two_listings_are_equal():
    first = design_fingerprints.listing([1], 3)
    assert design_fingerprints.listing([1], 3) == first
    assert [line.split()[:2] for line in first] == [["1", "0"], ["1", "1"], ["1", "2"], ["1", "failed"]]
    assert all(len(line.split()[2]) == 64 for line in first[:3])
    assert first[3] == f"1 failed {sum(int(line.split()[3]) for line in first[:3])} of 3"


def test_loading_the_workload_leaves_the_import_state_as_it_was():
    path, dont_write_bytecode = sys.path[:], sys.dont_write_bytecode
    design_fingerprints.load_workloads.cache_clear()
    assert design_fingerprints.load_workloads().DesignMixed.pass_units == 288
    assert (sys.path, sys.dont_write_bytecode) == (path, dont_write_bytecode)
    assert "workloads" not in sys.modules and "oracles" not in sys.modules


def test_an_edited_line_is_named(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(design_fingerprints, "listing", functools.partial(design_fingerprints.listing, plants=3))
    argv = ["--seeds", "1"]
    assert design_fingerprints.main(argv) == 0
    listing = capsys.readouterr().out.splitlines()
    reference = tmp_path / "reference.txt"
    reference.write_text("\n".join(listing) + "\n")
    assert design_fingerprints.main([*argv, "--against", str(reference)]) == 0
    assert capsys.readouterr().err.splitlines() == [f"0 differences from {reference}"]

    # a changed fingerprint names its plant; a failed count below this one names its seed
    seed, index, _, failed, wrong = listing[1].split()
    edited = [listing[0], f"{seed} {index} {'0' * 64} {failed} {wrong}", listing[2], "1 failed -1 of 3"]
    reference.write_text("\n".join(edited) + "\n")
    assert design_fingerprints.main([*argv, "--against", str(reference)]) == 1
    count = listing[3].split()[2]
    assert capsys.readouterr().err.splitlines() == [
        "differs: seed 1 plant 1", f"differs: seed 1: failed {count} of 3 (reference: failed -1 of 3)",
        f"2 differences from {reference}"]
