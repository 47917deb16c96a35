"""Lemke's path through the CLI, pinned byte for byte over a seeded corpus.

Each case runs ``solve-lcp --trace`` and ``solve-lcp --trace --lex`` on one
instance, then ``solve-lcp --budget k --trace`` for a few budgets k, most of
them below the path's pivot count (exit 1 with a partial trace), and one
budget in the lexicographic mode.  ``EXPECTED`` holds every command's exit
code, a digest of its stdout and its stderr, so a change to how the trace is
kept or printed cannot change what the CLI prints without failing here.
"""

import hashlib
import random

import pytest

from clslab.cli import main
from clslab.lcp import dump_lcp
from support import dd_lcp, gen_nonp_lcp, gen_p_lcp, make_lcp, murty_lcp, random_lcp

BUDGETS = (0, 1, 3, 12)


def _corpus() -> dict[str, str]:
    """Instance files by case name: support's dd, P, non-P and Murty families,
    the small rational instance, an instance that q >= 0 solves at once, and
    degenerate ones (tied minimum in q, ratio-test ties), which plain
    pivoting refuses with exit 2 and the lexicographic mode solves."""
    rng = random.Random(27)
    cases = {f"murty{d}": dump_lcp(murty_lcp(d)) for d in range(1, 7)}
    cases.update({f"dd{d}": dump_lcp(dd_lcp(rng, d)) for d in range(2, 9)})
    cases.update({f"p{d}": dump_lcp(gen_p_lcp(rng, d)) for d in range(1, 7)})
    cases.update({f"nonp{d}": dump_lcp(gen_nonp_lcp(rng, d)) for d in range(2, 6)})
    cases["rational"] = "1\n1/50\n-1/20\n"
    cases["trivial"] = dump_lcp(make_lcp([[1, 0], [0, 1]], [1, 2]))
    cases["tied-q"] = dump_lcp(make_lcp([[1, 0], [0, 1]], [-1, -1]))
    cases["ratio-tie"] = dump_lcp(make_lcp([[1, -1], [1, 1]], [1, -1]))
    k = 0
    while k < 8:  # entries in {-1, 0, 1}: ties are common
        inst = random_lcp(rng, 2 + k % 4, span=1)
        if min(inst.q) < 0:
            cases[f"ties{k}"] = dump_lcp(inst)
            k += 1
    return cases


def outputs(name: str, text: str, tmp_path, capsys) -> list[str]:
    """One line per command on the instance: the case, the command, the exit
    code, the first 16 hex digits of stdout's SHA-256, then stderr."""
    path = tmp_path / f"{name}.lcp"
    path.write_text(text)
    runs = {"plain": ["--trace"], "lex": ["--trace", "--lex"]}
    runs.update({f"budget{k}": ["--budget", str(k), "--trace"] for k in BUDGETS})
    runs["lex-budget1"] = ["--budget", "1", "--trace", "--lex"]
    got = []
    for command, flags in runs.items():
        code = main(["solve-lcp", str(path), *flags])
        out, err = capsys.readouterr()
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        got.append(f"{name} {command} {code} {digest} {err}".rstrip())
    return got


EXPECTED = """
dd2 plain 0 a0c43b4559bd38ab
dd2 lex 0 a0c43b4559bd38ab
dd2 budget0 1 18bd37a18ff96ec1
dd2 budget1 1 01fb3be52f1f5fb9
dd2 budget3 0 a0c43b4559bd38ab
dd2 budget12 0 a0c43b4559bd38ab
dd2 lex-budget1 1 01fb3be52f1f5fb9
dd3 plain 0 528223ab2a3a9af0
dd3 lex 0 528223ab2a3a9af0
dd3 budget0 1 8ed12fecfc14731f
dd3 budget1 1 ab29b64adf648807
dd3 budget3 0 528223ab2a3a9af0
dd3 budget12 0 528223ab2a3a9af0
dd3 lex-budget1 1 ab29b64adf648807
dd4 plain 0 5904fee782ab27fb
dd4 lex 0 5904fee782ab27fb
dd4 budget0 1 deb375f1972aa944
dd4 budget1 1 e3083b29e11a0d8a
dd4 budget3 1 3b8b27516902ca1d
dd4 budget12 0 5904fee782ab27fb
dd4 lex-budget1 1 e3083b29e11a0d8a
dd5 plain 0 270f013f2067227d
dd5 lex 0 270f013f2067227d
dd5 budget0 1 40377315bbe22ab0
dd5 budget1 1 e3ff4c5f77dc32be
dd5 budget3 1 0547dc7c5407aecf
dd5 budget12 0 270f013f2067227d
dd5 lex-budget1 1 e3ff4c5f77dc32be
dd6 plain 0 7b7fa9106682d130
dd6 lex 0 7b7fa9106682d130
dd6 budget0 1 bd3dbd006c79f350
dd6 budget1 1 4199aca3f137d946
dd6 budget3 1 f597bd4b9c6244ef
dd6 budget12 0 7b7fa9106682d130
dd6 lex-budget1 1 4199aca3f137d946
dd7 plain 0 3eeb67899ff2ecc0
dd7 lex 0 3eeb67899ff2ecc0
dd7 budget0 1 e32186f8a6af1ab8
dd7 budget1 1 4bebe728396c9c0d
dd7 budget3 1 b330d59283028417
dd7 budget12 0 3eeb67899ff2ecc0
dd7 lex-budget1 1 4bebe728396c9c0d
dd8 plain 0 902cc366fc895674
dd8 lex 0 902cc366fc895674
dd8 budget0 1 874a543feeee9487
dd8 budget1 1 03782bb03b48c0e8
dd8 budget3 1 7fa2132f03b2acc7
dd8 budget12 0 902cc366fc895674
dd8 lex-budget1 1 03782bb03b48c0e8
murty1 plain 0 4ccb32052ff2d7f1
murty1 lex 0 4ccb32052ff2d7f1
murty1 budget0 1 b6be7572eeac416f
murty1 budget1 0 4ccb32052ff2d7f1
murty1 budget3 0 4ccb32052ff2d7f1
murty1 budget12 0 4ccb32052ff2d7f1
murty1 lex-budget1 0 4ccb32052ff2d7f1
murty2 plain 0 42a984b172ff3835
murty2 lex 0 42a984b172ff3835
murty2 budget0 1 d56124965d97aaf7
murty2 budget1 1 ef71534135e202a5
murty2 budget3 0 42a984b172ff3835
murty2 budget12 0 42a984b172ff3835
murty2 lex-budget1 1 ef71534135e202a5
murty3 plain 0 b1bfafa294d19349
murty3 lex 0 b1bfafa294d19349
murty3 budget0 1 6ac9be5e1dfe3633
murty3 budget1 1 895f61243665468c
murty3 budget3 1 cb50a2bb3cb0b6b6
murty3 budget12 0 b1bfafa294d19349
murty3 lex-budget1 1 895f61243665468c
murty4 plain 0 8b9a7d4eeff975a9
murty4 lex 0 8b9a7d4eeff975a9
murty4 budget0 1 dd2f336a4bd71e7c
murty4 budget1 1 36d37b426df0eb2c
murty4 budget3 1 f0748cd03456c626
murty4 budget12 1 f68c1719084dcb42
murty4 lex-budget1 1 36d37b426df0eb2c
murty5 plain 0 2d2495681a202d84
murty5 lex 0 2d2495681a202d84
murty5 budget0 1 6b8f6baccf47f1ed
murty5 budget1 1 6eb14892d1eb1562
murty5 budget3 1 0f3c736536e00eb1
murty5 budget12 1 b5ec1e4781a6120a
murty5 lex-budget1 1 6eb14892d1eb1562
murty6 plain 0 b783b3c480747aa0
murty6 lex 0 b783b3c480747aa0
murty6 budget0 1 19bfb899f4f9270d
murty6 budget1 1 49141d1bfcc63c27
murty6 budget3 1 d04a4f0d8e5bd0b0
murty6 budget12 1 94dff4f1900d42b6
murty6 lex-budget1 1 49141d1bfcc63c27
nonp2 plain 0 995b4c15b8b1e92a
nonp2 lex 0 995b4c15b8b1e92a
nonp2 budget0 0 995b4c15b8b1e92a
nonp2 budget1 0 995b4c15b8b1e92a
nonp2 budget3 0 995b4c15b8b1e92a
nonp2 budget12 0 995b4c15b8b1e92a
nonp2 lex-budget1 0 995b4c15b8b1e92a
nonp3 plain 0 b6d7dd40df04763a
nonp3 lex 0 b6d7dd40df04763a
nonp3 budget0 1 3db5b4b4ba8389a2
nonp3 budget1 0 b6d7dd40df04763a
nonp3 budget3 0 b6d7dd40df04763a
nonp3 budget12 0 b6d7dd40df04763a
nonp3 lex-budget1 0 b6d7dd40df04763a
nonp4 plain 0 a95516502601859f
nonp4 lex 0 a95516502601859f
nonp4 budget0 1 d81a47be1b8d39d1
nonp4 budget1 0 a95516502601859f
nonp4 budget3 0 a95516502601859f
nonp4 budget12 0 a95516502601859f
nonp4 lex-budget1 0 a95516502601859f
nonp5 plain 0 1f04f71eac66afda
nonp5 lex 0 1f04f71eac66afda
nonp5 budget0 0 1f04f71eac66afda
nonp5 budget1 0 1f04f71eac66afda
nonp5 budget3 0 1f04f71eac66afda
nonp5 budget12 0 1f04f71eac66afda
nonp5 lex-budget1 0 1f04f71eac66afda
p1 plain 0 5bf6fd5d2572587c
p1 lex 0 5bf6fd5d2572587c
p1 budget0 1 691649e400c190cb
p1 budget1 0 5bf6fd5d2572587c
p1 budget3 0 5bf6fd5d2572587c
p1 budget12 0 5bf6fd5d2572587c
p1 lex-budget1 0 5bf6fd5d2572587c
p2 plain 0 2374639785910fbc
p2 lex 0 2374639785910fbc
p2 budget0 1 8825a20f90351205
p2 budget1 0 2374639785910fbc
p2 budget3 0 2374639785910fbc
p2 budget12 0 2374639785910fbc
p2 lex-budget1 0 2374639785910fbc
p3 plain 0 4d18d3ab2e43ce0a
p3 lex 0 4d18d3ab2e43ce0a
p3 budget0 1 f4e11a28cb4fa590
p3 budget1 0 4d18d3ab2e43ce0a
p3 budget3 0 4d18d3ab2e43ce0a
p3 budget12 0 4d18d3ab2e43ce0a
p3 lex-budget1 0 4d18d3ab2e43ce0a
p4 plain 0 be5811243f5a1baa
p4 lex 0 be5811243f5a1baa
p4 budget0 1 76f3a13471773d0b
p4 budget1 0 be5811243f5a1baa
p4 budget3 0 be5811243f5a1baa
p4 budget12 0 be5811243f5a1baa
p4 lex-budget1 0 be5811243f5a1baa
p5 plain 0 d30b8519d6e9b48f
p5 lex 0 d30b8519d6e9b48f
p5 budget0 1 14b9842847e04ba4
p5 budget1 1 fa3664e851e6509a
p5 budget3 0 d30b8519d6e9b48f
p5 budget12 0 d30b8519d6e9b48f
p5 lex-budget1 1 fa3664e851e6509a
p6 plain 0 34e6b293a89c9938
p6 lex 0 34e6b293a89c9938
p6 budget0 1 82b57f8f3a9a92e0
p6 budget1 1 b37578590c5fec9c
p6 budget3 0 34e6b293a89c9938
p6 budget12 0 34e6b293a89c9938
p6 lex-budget1 1 b37578590c5fec9c
ratio-tie plain 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s1, z
ratio-tie lex 0 0d6b8c4f4d291dbd
ratio-tie budget0 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s1, z
ratio-tie budget1 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s1, z
ratio-tie budget3 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s1, z
ratio-tie budget12 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s1, z
ratio-tie lex-budget1 0 0d6b8c4f4d291dbd
rational plain 0 01da0f7357d33ff0
rational lex 0 01da0f7357d33ff0
rational budget0 1 190ac4d4a4fc0558
rational budget1 0 01da0f7357d33ff0
rational budget3 0 01da0f7357d33ff0
rational budget12 0 01da0f7357d33ff0
rational lex-budget1 0 01da0f7357d33ff0
tied-q plain 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 2
tied-q lex 0 f77ecfb79da5eebc
tied-q budget0 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 2
tied-q budget1 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 2
tied-q budget3 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 2
tied-q budget12 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 2
tied-q lex-budget1 1 362c2ff5e14b1cb9
ties0 plain 0 28bf2e604b50e8a7
ties0 lex 0 28bf2e604b50e8a7
ties0 budget0 1 b1f09fc062e63495
ties0 budget1 0 28bf2e604b50e8a7
ties0 budget3 0 28bf2e604b50e8a7
ties0 budget12 0 28bf2e604b50e8a7
ties0 lex-budget1 0 28bf2e604b50e8a7
ties1 plain 0 abf237474aff3c46
ties1 lex 0 abf237474aff3c46
ties1 budget0 1 f6ee7ea9ec3e6a0b
ties1 budget1 1 ef525254898b84ce
ties1 budget3 0 abf237474aff3c46
ties1 budget12 0 abf237474aff3c46
ties1 lex-budget1 1 ef525254898b84ce
ties2 plain 0 8f8d079a87369d34
ties2 lex 0 8f8d079a87369d34
ties2 budget0 0 8f8d079a87369d34
ties2 budget1 0 8f8d079a87369d34
ties2 budget3 0 8f8d079a87369d34
ties2 budget12 0 8f8d079a87369d34
ties2 lex-budget1 0 8f8d079a87369d34
ties3 plain 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 5
ties3 lex 0 afb4ce1eafdc8e92
ties3 budget0 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 5
ties3 budget1 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 5
ties3 budget3 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 5
ties3 budget12 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 5
ties3 lex-budget1 0 afb4ce1eafdc8e92
ties4 plain 0 4196fee4f0dd7f4d
ties4 lex 0 4196fee4f0dd7f4d
ties4 budget0 0 4196fee4f0dd7f4d
ties4 budget1 0 4196fee4f0dd7f4d
ties4 budget3 0 4196fee4f0dd7f4d
ties4 budget12 0 4196fee4f0dd7f4d
ties4 lex-budget1 0 4196fee4f0dd7f4d
ties5 plain 0 286be1b90822f2fa
ties5 lex 0 286be1b90822f2fa
ties5 budget0 0 286be1b90822f2fa
ties5 budget1 0 286be1b90822f2fa
ties5 budget3 0 286be1b90822f2fa
ties5 budget12 0 286be1b90822f2fa
ties5 lex-budget1 0 286be1b90822f2fa
ties6 plain 0 0cc78bc621c2c119
ties6 lex 0 0cc78bc621c2c119
ties6 budget0 1 532b412433aaaede
ties6 budget1 0 0cc78bc621c2c119
ties6 budget3 0 0cc78bc621c2c119
ties6 budget12 0 0cc78bc621c2c119
ties6 lex-budget1 0 0cc78bc621c2c119
ties7 plain 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 3, 5
ties7 lex 0 efbb34a21aaf1c06
ties7 budget0 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 3, 5
ties7 budget1 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 3, 5
ties7 budget3 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 3, 5
ties7 budget12 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 3, 5
ties7 lex-budget1 0 efbb34a21aaf1c06
trivial plain 0 bea97b0eb9cb1e50
trivial lex 0 bea97b0eb9cb1e50
trivial budget0 0 bea97b0eb9cb1e50
trivial budget1 0 bea97b0eb9cb1e50
trivial budget3 0 bea97b0eb9cb1e50
trivial budget12 0 bea97b0eb9cb1e50
trivial lex-budget1 0 bea97b0eb9cb1e50
"""


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_solve_lcp_cli_output_is_pinned(name, tmp_path, capsys):
    want = [line for line in EXPECTED.splitlines() if line.split(" ", 1)[0] == name]
    assert outputs(name, _corpus()[name], tmp_path, capsys) == want
