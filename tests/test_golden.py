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
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_stdout(command, digest, tmp_path, monkeypatch, capsys):
    (tmp_path / "stair.txt").write_text(STAIR_TXT)
    (tmp_path / "triple.json").write_text(TRIPLE_JSON)
    monkeypatch.chdir(tmp_path)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
