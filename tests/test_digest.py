"""``tools/digest.py``, the per-case digest of engine bits and ledgers, at a tiny size."""

from collections import defaultdict
import importlib.util
import os
import re

from meshdft import mesh as mesh_module

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location("digest", os.path.join(ROOT, "tools", "digest.py"))
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def test_digest_hashes_every_case_once(capsys):
    slab_bytes = mesh_module.SLAB_BYTES
    digest.main(digest.TINY_LAYOUTS)
    lines = capsys.readouterr().out.splitlines()
    assert mesh_module.SLAB_BYTES == slab_bytes
    names, hashes = zip(*(line.split() for line in lines))
    # 4 engines, 3 precisions on f64 input and f32 on f32 input, 2 worker counts,
    # 2 slabbings; then a kdft plan per precision and sampling; then 2 engines
    # fed a list and blocks; then the command lines and the five demos
    runs, plans = 4 * 4 * 2 * 2 * len(digest.TINY_LAYOUTS), 3 * 2 * len(digest.TINY_LAYOUTS)
    fed, clis, demos = runs + plans + 4, len(digest.CLI_RUNS), len(digest.DEMOS)
    assert demos == 5
    assert len(set(names)) == len(names) == fed + clis + demos + 1
    assert all(name.startswith("kdft-plan/") for name in names[runs:runs + plans])
    assert [name.rsplit("/", 1)[1] for name in names[runs + plans:fed]] == ["list", "blocks"] * 2
    assert all(name.startswith("cli/") for name in names[fed:fed + clis])
    assert all(name.startswith("demo/") for name in names[fed + clis:-1])
    assert names[-1] == "all"
    assert all(re.fullmatch(r"[0-9a-f]{64}", h) for h in hashes)
    # the same run gives the same lines
    digest.main(digest.TINY_LAYOUTS)
    assert capsys.readouterr().out.splitlines() == lines
    # criterion 8: neither workers nor the slabbing changes a case's bits or
    # ledgers, nor does f32 input in f32 against f64 input cast at entry,
    # while each engine, precision and layout has its own
    variants = defaultdict(set)
    for name, h in zip(names[:runs], hashes[:runs]):
        engine, mode, _, _, layout = name.split("/")[:5]
        variants[engine, mode, layout].add(h)
    assert all(len(v) == 1 for v in variants.values())
    assert len({h for v in variants.values() for h in v}) == len(variants)
    # a plan's digest is its own: each precision, sampling and layout differs
    assert len(set(hashes[runs:runs + plans])) == plans
    # an engine gives the same bits from a hand-built list as from decompose's blocks
    listed = hashes[runs + plans:fed]
    assert listed[0] == listed[1] != listed[2] == listed[3]
    assert len(set(hashes[fed:-1])) == clis + demos


def test_compare_names_the_cases_that_differ(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("fft/f64/x 01\nkdft-plan/f32/uniform/y 02\nkdft/f32/z 03\nall 04\n")
    b.write_text("fft/f64/x 01\nkdft-plan/f32/uniform/y 12\nfft/f32/w 05\nall 14\n")
    assert digest.compare(a, b) == ["kdft-plan/f32/uniform/y", "kdft/f32/z", "fft/f32/w"]
    assert digest.compare(a, a) == []
