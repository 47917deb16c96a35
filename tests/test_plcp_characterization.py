"""The P-LCP line through the CLI, pinned byte for byte over a seeded corpus.

Each case runs ``pipeline plcp --trace`` and ``reduce plcp-eopl`` on one
instance, then ``follow --trace`` on the reduced file and, for d <= 3,
``enumerate`` on it.  ``EXPECTED`` holds every command's exit code, a digest
of its stdout and its stderr, so a change to how the line oracles are
answered cannot change what the CLI prints without failing here.
"""

import hashlib
import random

import pytest

from clslab.cli import main
from clslab.lcp import dump_lcp
from support import bench_gen, dd_lcp, gen_nonp_lcp, murty_lcp, random_lcp


def _corpus() -> dict[str, str]:
    """Instance files by case name: support's dd, long-path, non-P and Murty
    families, the small rational instance and seeded small integer LCPs
    (some degenerate, so some commands stop with an error)."""
    gen, rng = bench_gen(), random.Random(25)
    cases = {f"murty{d}": dump_lcp(murty_lcp(d)) for d in range(1, 7)}
    cases.update({f"dd{d}": dump_lcp(dd_lcp(rng, d)) for d in range(2, 7)})
    cases.update({f"longpath{d}": gen.long_path_lcp(random.Random(d), d).text() for d in range(2, 8)})
    cases.update({f"nonp{d}": gen.nonp_lcp(random.Random(d), d).text() for d in range(4, 8)})
    cases.update({f"nonp-small{d}": dump_lcp(gen_nonp_lcp(rng, d)) for d in (1, 2, 3)})
    cases["rational"] = "1\n1/50\n-1/20\n"
    for k in range(40):
        inst = random_lcp(rng, 1 + k % 3, span=2)
        cases[f"random{k}"] = dump_lcp(inst)
    return cases


def outputs(name: str, text: str, tmp_path, capsys) -> list[str]:
    """One line per command on the instance: the case, the command, the exit
    code, the first 16 hex digits of stdout's SHA-256, then stderr."""
    got = []

    def run(command: str, argv: list[str]) -> tuple[int, str]:
        code = main(argv)
        out, err = capsys.readouterr()
        digest = hashlib.sha256(out.encode()).hexdigest()[:16]
        got.append(f"{name} {command} {code} {digest} {err}".rstrip())
        return code, out

    path = tmp_path / f"{name}.lcp"
    path.write_text(text)
    run("pipeline", ["pipeline", "plcp", str(path), "--trace"])
    code, reduced = run("reduce", ["reduce", "plcp-eopl", str(path)])
    if code == 0:
        line = tmp_path / f"{name}.line"
        line.write_text(reduced)
        run("follow", ["follow", str(line), "--trace"])
        if int(text.split()[0]) <= 3:
            run("enumerate", ["enumerate", str(line)])
    return got


EXPECTED = """
dd2 pipeline 0 4fed2d30851f3466
dd2 reduce 0 2e6636a128c3f435
dd2 follow 0 5c609c877c1a99cb
dd2 enumerate 0 d9d08a993fac7b22
dd3 pipeline 0 3795ae763e85c7f8
dd3 reduce 0 b217178003b6325d
dd3 follow 0 34c798533a4ba53e
dd3 enumerate 0 cb9d3ad9fb35e47d
dd4 pipeline 0 e5b6b50b231ee96c
dd4 reduce 0 38e170106bf18332
dd4 follow 0 a9b9cdea6901a2d7
dd5 pipeline 0 65f492fd62d39273
dd5 reduce 0 d607514a9cf4037e
dd5 follow 0 dbadc90cd1cdf6be
dd6 pipeline 0 b1bfb134b5d17ecf
dd6 reduce 0 fc3bbca9c040ea28
dd6 follow 0 5c8438e816f52e3b
longpath2 pipeline 0 3848288ed5ed674a
longpath2 reduce 0 12ee5f15cc6e1cfc
longpath2 follow 0 8c97f5ff43643fd9
longpath2 enumerate 0 d9d08a993fac7b22
longpath3 pipeline 0 15e8d0dff4a72f6f
longpath3 reduce 0 e89f893e6fecc03c
longpath3 follow 0 f6ffb393e2cd99f0
longpath3 enumerate 0 cb9d3ad9fb35e47d
longpath4 pipeline 0 442a2a9edd2be120
longpath4 reduce 0 d97ea599a0882891
longpath4 follow 0 745a2867ec119200
longpath5 pipeline 0 ba4f34543fe014ce
longpath5 reduce 0 6b2b55a0d66ba38c
longpath5 follow 0 81113be9b7bde1c4
longpath6 pipeline 0 4ac02ea608b986af
longpath6 reduce 0 1ed0e5e28d92e946
longpath6 follow 0 5d3c90140adc2193
longpath7 pipeline 0 4e35ef4c149768d6
longpath7 reduce 0 a18393c1960c29f8
longpath7 follow 0 c403f3e460b09644
murty1 pipeline 0 e1fd7014d18786a9
murty1 reduce 0 14f9cbec137c2be2
murty1 follow 0 20415b3987c15f55
murty1 enumerate 0 ee64b4ed8870af71
murty2 pipeline 0 ae8f94b8103e2a22
murty2 reduce 0 2ba0c59c991cbc2c
murty2 follow 0 2673b8240ad57ea8
murty2 enumerate 0 3f3b6234d916a9e7
murty3 pipeline 0 265bde8429a34eed
murty3 reduce 0 ac53c77a7cd82d94
murty3 follow 0 2e7d4f497acec58b
murty3 enumerate 0 e8d225371b7d4d8f
murty4 pipeline 0 3259dd83ae1a935f
murty4 reduce 0 68badc0e9b1de800
murty4 follow 0 a6855a9cb3345ead
murty5 pipeline 0 1b5dc9c7fb7e041c
murty5 reduce 0 28cb8f7bd95d7191
murty5 follow 0 1f067888c3399351
murty6 pipeline 0 bfd4524b1de8b468
murty6 reduce 0 ce1268422bd28e90
murty6 follow 0 cac2b95c0482b84e
nonp-small1 pipeline 0 b1182a61efa557ea
nonp-small1 reduce 0 1a192f6a8efbee38
nonp-small1 follow 0 338be034ca3b3cb3
nonp-small1 enumerate 0 ab8306f0e6598189
nonp-small2 pipeline 0 c31bb5d4ac4b4b0e
nonp-small2 reduce 0 8a8c8738fcc5ca1d
nonp-small2 follow 0 56b1360a8aa9d2da
nonp-small2 enumerate 0 674682adf510efeb
nonp-small3 pipeline 0 ac3d2f9bde6b5760
nonp-small3 reduce 0 e6af8be42b2a4fae
nonp-small3 follow 0 752ab9bd3d3a7ba2
nonp-small3 enumerate 0 83d1834a8f8286b1
nonp4 pipeline 0 309114327a66a88c
nonp4 reduce 0 ae17c0b78648aae7
nonp4 follow 0 e1a8d63330e8602d
nonp5 pipeline 0 e04f8b4331e69f1d
nonp5 reduce 0 ede1dd958a69c479
nonp5 follow 0 48d0766b6b764805
nonp6 pipeline 0 63457fe0648bc757
nonp6 reduce 0 24f0ce7e441cae54
nonp6 follow 0 ab5bec8217f1c87f
nonp7 pipeline 0 00a6d10022dbcfc1
nonp7 reduce 0 4620f04195f062a8
nonp7 follow 0 fb50785afd594cb4
random0 pipeline 0 4b3f603d98dd1b08
random0 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random1 pipeline 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 2
random1 reduce 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 2
random10 pipeline 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 2
random10 reduce 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 2
random11 pipeline 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s3, z
random11 reduce 0 46bc8d3f9d11e0d6
random11 follow 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s3, z
random11 enumerate 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s3, z
random12 pipeline 0 9c7b3856a8d11838
random12 reduce 0 bc13b02aff79deb9
random12 follow 0 ffa5a9f7d17eca5a
random12 enumerate 0 ab8306f0e6598189
random13 pipeline 0 9113a6366bbc079a
random13 reduce 0 8453f090ac0d362e
random13 follow 0 1b87a5af1b0cde59
random13 enumerate 0 6b115ea29ee80700
random14 pipeline 0 93745b84cd25b6bf
random14 reduce 0 23b8df0fe7b5f364
random14 follow 0 5684273c00fb8102
random14 enumerate 0 1390d1a725d8d023
random15 pipeline 0 4b3f603d98dd1b08
random15 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random16 pipeline 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 2
random16 reduce 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 1, 2
random17 pipeline 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 2, 3
random17 reduce 2 e3b0c44298fc1c14 degeneracy: tied minimum in q at indices 2, 3
random18 pipeline 0 4b3f603d98dd1b08
random18 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random19 pipeline 0 4b3f603d98dd1b08
random19 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random2 pipeline 0 f5e9aeb9447b165d
random2 reduce 0 b4f4874ae6d30562
random2 follow 0 7888da747194b973
random2 enumerate 0 0c98825773724770
random20 pipeline 0 f8559f4bcf224398
random20 reduce 0 1acdb2dc0edfbfe4
random20 follow 0 12265961aa2958f9
random20 enumerate 0 e8d225371b7d4d8f
random21 pipeline 0 4b3f603d98dd1b08
random21 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random22 pipeline 0 4b3f603d98dd1b08
random22 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random23 pipeline 0 4b3f603d98dd1b08
random23 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random24 pipeline 0 4b3f603d98dd1b08
random24 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random25 pipeline 0 e1c2100975707f52
random25 reduce 0 eff03cfee2cdfd56
random25 follow 0 d81147c60f930c18
random25 enumerate 0 674682adf510efeb
random26 pipeline 0 4b3f603d98dd1b08
random26 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random27 pipeline 0 4b3f603d98dd1b08
random27 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random28 pipeline 0 31bdbb0058be6e10
random28 reduce 0 ee786acb8a973766
random28 follow 0 dfe2a61617f094e2
random28 enumerate 0 1f249f291a44aa57
random29 pipeline 0 0b05e4dd26a35640
random29 reduce 0 62d7ecda6584799a
random29 follow 0 7888da747194b973
random29 enumerate 0 993d47fbff5680b7
random3 pipeline 0 4b3f603d98dd1b08
random3 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random30 pipeline 0 4b3f603d98dd1b08
random30 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random31 pipeline 0 99b7da9f275d1216
random31 reduce 0 d5bd724195209520
random31 follow 0 d50f69cdf710767d
random31 enumerate 0 674682adf510efeb
random32 pipeline 0 8082bdccd725aab3
random32 reduce 0 f43e05e6133ef21b
random32 follow 0 df5458673f459ca3
random32 enumerate 0 1390d1a725d8d023
random33 pipeline 0 4b3f603d98dd1b08
random33 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random34 pipeline 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s2, z
random34 reduce 0 2fc2adc4f485cbc7
random34 follow 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s2, z
random34 enumerate 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s2, z
random35 pipeline 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s1, z
random35 reduce 0 7e9d9173f96c9bb1
random35 follow 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s1, z
random35 enumerate 2 e3b0c44298fc1c14 degeneracy: ratio-test tie between s1, z
random36 pipeline 0 4b3f603d98dd1b08
random36 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random37 pipeline 0 4b3f603d98dd1b08
random37 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random38 pipeline 0 5df551673bc9d0cd
random38 reduce 0 a30ace158fff4f02
random38 follow 0 5684273c00fb8102
random38 enumerate 0 1390d1a725d8d023
random39 pipeline 0 4b3f603d98dd1b08
random39 reduce 4 e3b0c44298fc1c14 error: q >= 0 is solved by y = 0; nothing to reduce
random4 pipeline 0 9122c05e6cc16c18
random4 reduce 0 dd29f53e7995fbe6
random4 follow 0 04c5724a7b30097a
random4 enumerate 0 6b115ea29ee80700
random5 pipeline 0 980e4dc7532527e4
random5 reduce 0 85817a7b0bb34fa0
random5 follow 0 81db8e2feeca30de
random5 enumerate 0 83d1834a8f8286b1
random6 pipeline 0 3483aac2d892c6a6
random6 reduce 0 d48a6aa31af02b5c
random6 follow 0 24eec0b24b003220
random6 enumerate 0 ee64b4ed8870af71
random7 pipeline 0 a2818658a3119cec
random7 reduce 0 005c960e1e2b3462
random7 follow 0 be37c0489a443104
random7 enumerate 0 3f3b6234d916a9e7
random8 pipeline 0 a8e89d6215a6a2d0
random8 reduce 0 7ab66fbd998a5914
random8 follow 0 2cf79a57f76a6c40
random8 enumerate 0 de649b1058b4b31e
random9 pipeline 0 2e66d09109e5deeb
random9 reduce 0 2d60a246e006b701
random9 follow 0 8d9e79bc58b72f59
random9 enumerate 0 ab8306f0e6598189
rational pipeline 0 185e99219804c07d
rational reduce 0 cc793fe4117597c0
rational follow 0 9b4311ca4589d75f
rational enumerate 0 ee64b4ed8870af71
"""


@pytest.mark.parametrize("name", sorted(_corpus()))
def test_plcp_cli_output_is_pinned(name, tmp_path, capsys):
    want = [line for line in EXPECTED.splitlines() if line.split(" ", 1)[0] == name]
    assert outputs(name, _corpus()[name], tmp_path, capsys) == want
