"""Golden stdout: SHA-256 digests of CLI output, recorded before the
Kronecker multiply kernel replaced the pairwise loop in Poly.__mul__.

The commands are every CLI example in the README plus a few large queries
whose output runs through big products (lucanomial and Narayana
polynomials with hundreds of terms, the theorem3 and classical sweeps).
A change to the arithmetic kernel must leave every digest unchanged.
"""

import hashlib

import pytest

from lucanomials.cli import main

STAIR_TXT = "SDSS\nDD\nDS\nD\nS\n"
# `bijection forward --n 6 --k 3 --input stair.txt --format json` of STAIR_TXT.
TRIPLE_JSON = (
    '{"other_stair": ["SS", "S"], "rect": {"lambda": [3, 2, 2], '
    '"lambda_rows": ["SD", "D", "D"], "star_rows": ["D", "", ""]}, '
    '"small_stair": ["D", "S"]}\n'
)

GOLDEN = [
    ("lucas --n 4", "032329a549304d3b25e0953a8e15664414380c38460eb2ef5643090ee40744aa"),
    ("lucanomial --n 6 --k 3", "241eb9641374b1dda936e70d03eefaccaa76b2ce44eaabd65cbb95221c3ca223"),
    ("fibonomial --n 6 --k 3", "95cf32708a31caa478a0e9141103ac567d85e5186e697e7e0c81f75589999e31"),
    ("narayana --n 5 --k 2 --mode fibo", "238903180cc104ec2c5d8b3f20c5bc61b389ec0a967df8cc208cdc7cd454174f"),
    ("narayana --n 5 --k 2 --mode general", "dc5865a73cb57201a3575f571b4199f5248a07c9c6ef03b2bb9008806e61ceb8"),
    ("narayana --n 5 --k 2 --mode classical", "917df3320d778ddbaa5c5c7742bc4046bf803c36ed2b050f30844ed206783469"),
    ("catalan --n 3 --mode fibo", "5378796307535df3ec8d8b15a2e2dc5641419c3d3060cfe32238c0fa973f7aa3"),
    ("tilings count --n 4 --k 2", "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7"),
    ("tilings list --n 4 --k 2", "9db224fa7db56f75c00c57ea30b6e131e5a05f2a074ce7790d3b8a0f7193e16a"),
    ("bijection forward --n 6 --k 3 --input stair.txt", "bb4100320d85a2c56d33f51fc3465c2e94414d9f38b5bcf8248a35ec56a27d2c"),
    ("bijection inverse --n 6 --k 3 --input triple.json", "cb6dd5aaec0805a96755b4c293457ed913e476a6d8b3ddb10c03e5df79038e91"),
    ("verify theorem1 --n-max 8", "58bdce64af3a34eab5254e61650d4c6575759a3f99b366c3efc5f17ec0584954"),
    ("verify bijection --n 6 --k 3 --format json", "89c73f25354f5e2f065ddbe76456a3993f5acaa6af1595dad6e6d5dc8e6e2daa"),
    ("lucanomial --n 40 --k 20", "a40ab9583732d9655535a4cc77393bf7fdab0b525bb29d86b02dcd0db470d6ad"),
    ("narayana --n 30 --k 15 --mode general", "2d6f4b185ccd77647079c63c44f6a5d0948e7b7db1d82d451a36e4d376f1c744"),
    ("catalan --n 20 --mode general", "d0130086c7cae7506dfdbcda557bd21e882fc561793ade82ea678cfbd6452f99"),
    ("verify theorem3 --n-max 14 --format json", "f6c7ce741684428c26f6cb46076482d39a95833259bfbad4b379ded875520732"),
    ("verify classical --n-max 20", "cc01af851a715befc746b272b5efa7c1e7f5a9b63a34fb4ad0f8cb233526999a"),
    # Recorded before exact division of weighted-homogeneous operands became
    # a series kernel: the rhs of each catalan check is a quotient, and every
    # atom behind the lucanomial is one.
    ("verify catalan --n-max 18 --format json", "da4d9390b0ed8462c733b4cbe43a178ba8473b5a80cab077563915e4d3c41d71"),
    ("lucanomial --n 84 --k 13", "dcc673b7871c5be53f0fa9617dfb490d28bfcadedb6219b5139c6744f9205336"),
    # Recorded before `verify` was driven from one target table: every path
    # the table serves (sweep, single n, single (n, k)), in text and JSON.
    ("verify theorem1 --n 5", "f9facfdc1db07b5ea9990d8d30fb50556fdb6c49dfdd44ff01b99b38b4c7403c"),
    ("verify theorem1 --n 5 --format json", "6a0d82da593387e117376101178e0270304e54ee46e81598a0f9861001560fd6"),
    ("verify theorem1 --n 5 --k 2", "ed25a95c49ebe1fce33ba346a944a8dd02afdeaf7c3a53aa5bf7ccab9911d452"),
    ("verify theorem1 --n 5 --k 2 --format json", "a704b1aad948a617104259229e7c0a0f916b89ea4addb4c12448081dc64806c4"),
    ("verify theorem2 --n-max 8", "2f82e7c6cdd3ba96dbdbc9d0ce18f9a4dcab79e5b601d79f8d5fbf1c04d181d7"),
    ("verify theorem2 --n-max 8 --format json", "0ba434ce10f3b32e21367154396a36bc9a6436d951e4ce01ebe0d785fcf1ad81"),
    ("verify theorem2 --n 5 --k 2", "9c57f2f473c189fddab3a751ff889f5ce92c14aaecde38e40164766613d6e133"),
    ("verify theorem2 --n 5 --k 2 --format json", "2932aa444c80a584f83b4cbe8773fb8343dcbe34f167eeb482f13f0b8854bbad"),
    ("verify theorem3 --n 6", "2bdc009df5a53247e7a82c758623e8900061354a8e7f4de73ad087e561661c83"),
    ("verify theorem3 --n 6 --format json", "c47c76978b67f4d561ea5c9202bcba7433a6d627babdd0ca7644566e0bb999ca"),
    ("verify theorem3 --n 6 --k 3", "4bcbebe21acb1daccaf48c5e05e0bd5fe8b5af64091492143f3e8dcf91642d00"),
    ("verify theorem3 --n 6 --k 3 --format json", "e3dfbdda8b50662e4e62127c851ad98a60837f608ca6061639e8e99d65ef5930"),
    ("verify bijection --n-max 5", "fcc32521beb547756ddbd863d7e709ea93c579dd08e0a6a510772c39bdc7f7ba"),
    ("verify bijection --n-max 5 --format json", "ad6df21b1a9d4cd8a3a49e87b230ba21928c64113dbc217f03c981e1feb54559"),
    ("verify catalan --n 4", "c63e32c3a668c685aac7a763649273b54ddf84373e0b2a80aea68a6e6380ca84"),
    ("verify catalan --n 4 --format json", "fee4e3accaf1c06fe739382836a02e139ebf6d518d5922e81ff518dd6bf78dc2"),
    ("verify classical --n 10", "4c663f5d129cf993dc1c49b3377e65c14dd47134a2ab65f740cf04565051aac4"),
    ("verify classical --n 10 --format json", "6929f135159df21a4e53c50b837c6c7f3e9d76d21bbd3fb50685de260d5f1c99"),
    # Recorded before the value commands were driven from one table: forms
    # of the value commands that no line above covers.
    ("lucas --n 9 --format json", "4242d52948637caed8c3317ef4d4e563c21c118b2f1a6b8067792df38e20c991"),
    ("fibonomial --n 20 --k 10 --format json", "13690ae1ffa9e99724fda286758a56f1e8a8368b1696bfefb5108b10f9cd4e10"),
    ("narayana --n 7 --k 3 --mode classical --format json", "d67eb142ab6068895dce4b5fe31c96d753ed1da9553eb044cd6e96d014ebf723"),
    ("catalan --n 4 --mode classical", "9a92adbc0cee38ef658c71ce1b1bf8c65668f166bfb213644c895ccb1ad07a25"),
    ("catalan --n 6 --mode general --format json", "b60b360ed7cc7f814fd6f3087d15e375607add39d1cad56ccb287597d0531c4b"),
    # Recorded before the multiply kernel gained its decimal tier: each of
    # these takes at least one product above the tier's cutoff.
    ("narayana --n 50 --k 25 --mode general", "e151e5bc7bbb97c9f4899bdce04b2bbb5d8c1430208b121300b41a0fe035d95b"),
    ("lucanomial --n 64 --k 32", "c59ef298e482464fa4aba4956a548773ac3def6464178b3ba18daddd5aeed754"),
    # Recorded before one decorator took over the domain check, mirror key
    # and memo of every (n, k) family: the edges of each family's domain.
    ("lucanomial --n 5 --k 9", "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("lucanomial --n 5 --k 9 --format json", "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    ("lucanomial --n 0 --k 0", "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("lucanomial --n 0 --k 0 --format json", "1944dc7d3d944e23038010ebdc17a9c30bd02defddccf4692648f9b3aa6036aa"),
    ("fibonomial --n 7 --k -1", "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("fibonomial --n 7 --k -1 --format json", "848764aca4b1f0f83e39cfe42a00b726cbe045450bef87d62b9955bfe52e07fe"),
    ("narayana --n 1 --k 1 --mode fibo", "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("narayana --n 1 --k 1 --mode fibo --format json", "e1a9c5d6d1ec67d6ed503753511669eec4c2af07287393d13295bac9d3ac1761"),
    ("narayana --n 5 --k 0 --mode fibo", "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("narayana --n 5 --k 0 --mode fibo --format json", "848764aca4b1f0f83e39cfe42a00b726cbe045450bef87d62b9955bfe52e07fe"),
    ("narayana --n 1 --k 1 --mode general", "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("narayana --n 1 --k 1 --mode general --format json", "1944dc7d3d944e23038010ebdc17a9c30bd02defddccf4692648f9b3aa6036aa"),
    ("narayana --n 5 --k 0 --mode general", "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("narayana --n 5 --k 0 --mode general --format json", "ea97a715cd5e398754b498e82ff441f80562cc10c29547e3cb945d3b9800b7c5"),
    ("narayana --n 1 --k 1 --mode classical", "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("narayana --n 1 --k 1 --mode classical --format json", "e1a9c5d6d1ec67d6ed503753511669eec4c2af07287393d13295bac9d3ac1761"),
    ("narayana --n 5 --k 0 --mode classical", "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("narayana --n 5 --k 0 --mode classical --format json", "848764aca4b1f0f83e39cfe42a00b726cbe045450bef87d62b9955bfe52e07fe"),
    ("narayana --n 6 --k 7 --mode fibo", "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
    ("narayana --n 6 --k 7 --mode fibo --format json", "848764aca4b1f0f83e39cfe42a00b726cbe045450bef87d62b9955bfe52e07fe"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_stdout(command, digest, tmp_path, monkeypatch, capsys):
    (tmp_path / "stair.txt").write_text(STAIR_TXT)
    (tmp_path / "triple.json").write_text(TRIPLE_JSON)
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
