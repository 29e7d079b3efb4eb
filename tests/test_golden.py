"""Byte identity of CLI reports for commands the benchmark does not pin.

The digests were recorded before the CLI was reworked around one experiment
table; a change that alters any report byte must say so and re-record them.
Each run writes to a relative ``--out`` inside a fresh working directory, so
the ``_config.json`` echo (which records the output path) hashes the same on
every machine.
"""

import hashlib
from pathlib import Path

import pytest

from smplab.cli import EXIT_OK, main
from smplab.qcore import random_density, random_measurement_operator
from smplab.rng import trial_rng
from smplab.serialize import save_matrix

REPORTS = ("_rows.csv", "_summary.txt", "_config.json")

GOLDEN = {
    "hidden-matching": (
        ["--experiment", "hidden-matching", "--param", "n=4"],
        {
            "hidden-matching_rows.csv": "9fe10e659e21cb42ce00319b84c4a2eb4890c71c2592146594bf3119110606b2",
            "hidden-matching_summary.txt": "1fa74813e89f42dbd5df0f2a227219e1f17bd34266ad54d9dd796a20cfda1877",
            "hidden-matching_config.json": "02111073e59258a9ea25c092da78218a21ef7b3f89d693fe3dad14d20348357f",
        },
    ),
    "compile-toy-q1": (
        ["--experiment", "compile", "--param", "fixture=toy-q1", "--param", "r=3"],
        {
            "compile_rows.csv": "5a71b9600309da8ef9d776ee56ee5add26bb9ceea3ecd0acd76dec8887f75e4b",
            "compile_summary.txt": "c4808fd36b8e35cc4fdfede2af76fbed480a3fe695e53bbc81627fd65b1becef",
            "compile_config.json": "76f7d9613ded62470a30ba606f789622560f950da131e3374b0c5359efc6d5da",
        },
    ),
    "compile-toy-q2": (
        ["--experiment", "compile", "--param", "fixture=toy-q2"],
        {
            "compile_rows.csv": "9774b2650ae2579adc31244c6f042ecf356eb8bb6bb11373ec7612aaa8827045",
            "compile_summary.txt": "002e5d40c063b61ef3af75df18babb925ba7721142e71194a6b24fa1233a7fd0",
            "compile_config.json": "88b27567e0cfe2ea19a6918263bbfec7cd9956e3224807bbc8c9c010db3201a2",
        },
    ),
    # r = 2 because at odd r the first input's band [0.45, 0.55] holds no
    # eigenvalue k/r of F, so its correction is empty and the run exits 3
    "compile-hm-verify-r2": (
        ["--experiment", "compile", "--param", "fixture=hm-verify", "--param", "r=2"],
        {
            "compile_rows.csv": "32c37ac2ba25adf4ed0730035ef312a63335d0eb958605814dddf819d54de8a3",
            "compile_summary.txt": "0eebb1a3a9f0bf580b68329056e31c433ba3553860318d653d1eb1c2aac87bb8",
            "compile_config.json": "193b0cd02d2277df28c11602d49e94ecb22493a85153f2d5e04eb14328acba33",
        },
    ),
    "learn-state-fixture": (
        ["--experiment", "learn-state"],
        {
            "learn-state_rows.csv": "8efda4d70841ba1c95f58f73d812c917e63730559c86f7fb69cd3042d2affd2c",
            "learn-state_summary.txt": "a78ccc7f012ea25e41fd3bc6a7bd553f8eaca2e23d3f4fcdb867212240601b73",
            "learn-state_config.json": "56994f461948b4527f21b2d0a821fe753ba65719e4d7446e3a458fcf8f493dc0",
        },
    ),
    "derandomize": (
        ["--experiment", "derandomize", "--param", "n=2", "--param", "s=12", "--seed", "3"],
        {
            "derandomize_rows.csv": "dc10e3ea548f86be5ea61a66bc873c6c4dd9d9d32dd1bd6dc4857d1272dcb971",
            "derandomize_summary.txt": "53b130d0894950536a9ce1af667170425d01a017187dc50aee31ba7894ed05f1",
            "derandomize_config.json": "07adf731bfa0b3a07f6db310664ce508c1a7fc639f023b9fe6d86491ce9e8d4c",
        },
    ),
    "matching-classical": (
        ["--experiment", "matching-classical", "--param", "n=16", "--param", "instances=3",
         "--trials", "40", "--seed", "77"],
        {
            "matching-classical_rows.csv": "d98cefa7d79cb1a4800e3ede93b633d323ff29c5b6be0174e9c31ef908f8602b",
            "matching-classical_summary.txt": "a201266ecced2b84c1585a2f392c61f005611873fd4031dd896b7ff17802f5c1",
            "matching-classical_config.json": "c0f1e3ca08eb882902140b49afca2ca8723cb61cb609fef65ddf71bfcf845d33",
        },
    ),
    "eq-public-sweep": (
        ["--experiment", "eq-public", "--param", "n=2", "--sweep-param", "k",
         "--sweep-values", "1,2,3"],
        {"eq-public_sweep.csv": "0fe3571801957767bb8b4e7033e745f3a9f77d6c001d8b3c317ffdecedcb0895"},
    ),
    "eq-code-n2": (
        ["--experiment", "eq-code", "--param", "n=2", "--param", "reps=2"],
        {
            "eq-code_rows.csv": "f3ce75ba1ac30ee5d1ad186eb78e159a95b67e821b82a18bb91ad393671e67a9",
            "eq-code_summary.txt": "19dbf6bba7b14b151154d6871b50872cd272570909bb10b127da62b14a7ecc42",
            "eq-code_config.json": "15d79c53f41d8deda74301a209ffbe2459b82a344c9fe5409d2b1ee5c379ae58",
        },
    ),
    "eq-code-n5": (  # over the enumeration budget: closed form only
        ["--experiment", "eq-code", "--param", "n=5", "--param", "reps=5"],
        {
            "eq-code_rows.csv": "6f4e65112d43ae8414f880a62042d5db27274d1f2c0e4e9592f93f651b4ba752",
            "eq-code_summary.txt": "1ff46ea0f85292ecafd04716ea9edf335cea76f020d6f92fd832e0a4fa5ca906",
            "eq-code_config.json": "628d263e01a23bef13fc11db7dd074a6cf97e61e575f0275eafcbd2b53ff5263",
        },
    ),
    "matching-qc": (
        ["--experiment", "matching-qc", "--param", "n=16", "--param", "instances=3",
         "--trials", "40", "--seed", "77"],
        {
            "matching-qc_rows.csv": "7d362b8ec548267b6f275e8a86f8c9fdecfd8fd792c17d8baa849a1e718b20a9",
            "matching-qc_summary.txt": "e881585bd67ad91b3634140c81d2548bdaba9d921f1260b8b92532e4d82e8180",
            "matching-qc_config.json": "fcbd9fc9a837502309c938b85772e8f51849f523ab27e4c25628c3605459223e",
        },
    ),
    "matching-qc-n32": (
        ["--experiment", "matching-qc", "--param", "n=32", "--param", "subset_size=9",
         "--param", "copies=3", "--param", "edges_sent=2", "--seed", "7", "--trials", "50"],
        {
            "matching-qc_rows.csv": "90939e38c44214bfca4efdda663a57f5381f2579cb91f06df7ca87a477da1ca4",
            "matching-qc_summary.txt": "0e3009964b8703f492dde4921e5d47daa2cd45261ea71f03b22ab1ca2b83bc26",
            "matching-qc_config.json": "33755617366351d23a4c4776036b9931e25bfd53a4e3f6436d059762ff1ab157",
        },
    ),
    "matching-classical-n64": (
        ["--experiment", "matching-classical", "--param", "n=64", "--param", "instances=2",
         "--seed", "7", "--trials", "50"],
        {
            "matching-classical_rows.csv": "64d6fbc1dc46b425fe5fccf7d088c599cef4f9848cb1c57dcaf6cb4be399cdb1",
            "matching-classical_summary.txt": "63232a716071fd04749fa296d67d415ca5fb3849f4dde4649c31f409b5260b70",
            "matching-classical_config.json": "f7e76a36d5f19913d17787bce0a32ca42f0ad408abcada106e9704f2abaeb7dc",
        },
    ),
    "learn-state-random": (
        ["--experiment", "learn-state", "--param", "mode=random", "--param", "instances=3",
         "--seed", "4"],
        {
            "learn-state_rows.csv": "9f11b092989b3e35983818ceba7f2a772a89161c6eca6c7b33d881ea429eeac7",
            "learn-state_summary.txt": "aa4f30d98b64f928d351f5a825d87b2cc7467e24d47096fd496617636d5b4a9f",
            "learn-state_config.json": "65e5f7a7064c5600454d71c2757ba70869f36d7f332fdc5e17788535fdbaa488",
        },
    ),
    "learn-state-file": (
        ["--experiment", "learn-state", "--param", "mode=file", "--param", "rho=rho.qmat",
         "--param", "operators=e0.qmat,e1.qmat"],
        {
            "learn-state_rows.csv": "fdfc9ba83d92845507b7413cdeb6df88ff3b0b3bb1d7eace57d9230d4edd567d",
            "learn-state_summary.txt": "40b991825bb6a05bad275eb6c00d24a842359b89317f6ebd45d90de666e95997",
            "learn-state_config.json": "64555bbf803650bea1b69a9eb2d4f1ec39fc9af983d0c291944d8edcaf19c661",
        },
    ),
    "oracle-suite": (
        ["--experiment", "oracle-suite", "--param", "instances=20", "--seed", "5"],
        {
            "oracle-suite_rows.csv": "27c482b5230e435ecf40b8fad5d41623c116c7e25202288e9ebc488266654fdb",
            "oracle-suite_summary.txt": "de5ce379230514e32c18d9778127534467b3c4307b5d280257f4e8420a7a5a92",
            "oracle-suite_config.json": "e92ba1cfe1419a9a8ecd8dd381c95af99d610cafaa769089040a3fedb104951b",
        },
    ),
    "oracle-suite-300": (
        ["--experiment", "oracle-suite", "--param", "instances=300", "--seed", "5"],
        {
            "oracle-suite_rows.csv": "644ac4c1cc761541219b4513cfa8dd71e916b7cefa492bc3927b76033effef77",
            "oracle-suite_summary.txt": "6cfb315715b4935b2ab54581da3685defc6732aee9dd8d25f1c3f21c13d02253",
            "oracle-suite_config.json": "f69b77716215cceb625db2622e2360a2bab60d1c10b19d7dd89a4f432678572b",
        },
    ),
}


def _write_learn_inputs():
    """A 1-qubit state and two operators, drawn so that the walk corrects once."""
    g = trial_rng(3, 0)
    save_matrix("rho.qmat", random_density(2, g).entries)
    for i in range(2):
        save_matrix(f"e{i}.qmat", random_measurement_operator(2, g).entries)


SETUP = {"learn-state-file": _write_learn_inputs}


@pytest.mark.parametrize("label", sorted(GOLDEN))
def test_report_bytes_unchanged(label, tmp_path, monkeypatch):
    argv, digests = GOLDEN[label]
    monkeypatch.chdir(tmp_path)
    SETUP.get(label, lambda: None)()
    assert main(argv + ["--out", "out"]) == EXIT_OK
    got = {name: hashlib.sha256((Path("out") / name).read_bytes()).hexdigest()
           for name in digests}
    assert got == digests
