"""Pinned chi-squared m* outputs of `msulab chi2-scan` and `msulab recommend`.

Each entry is the sha256 of a command's stdout. The hashes were recorded from
the code in which `chi2-scan`, `recommend` and the chi-scan preset each built
their own critical value, m* and heuristic m, so they pin the shared report
to the very same lines. `bench/reference.json` covers k = 8..256 at alpha 0.05
only; these cover every k in 2..300 at three levels and two factors, the
levels at which m* is the k - 1 rows of the extreme sample itself, and a few
cardinality profiles.
"""

import hashlib

import pytest

from msulab.cli import main

CELLS = ",".join(str(k) for k in range(2, 301))
SMALL_CELLS = ",".join(str(k) for k in range(2, 13))

# (alpha, factor) -> sha256 of `chi2-scan --cells 2..300`
SCANS = {
    ("0.01", "10"): "0b425663c7cf23bcb0b6eeaddc041d974681dea9b598b15155357103586c39a5",
    ("0.01", "2.5"): "e60c0f544f8e4c73689cfc004f595ec1ab69044489605a04e491dc49268afb75",
    ("0.05", "10"): "b1c319312651fc60d40e0d4e6b82c01c0252d281dd9217466c7ab49059df928f",
    ("0.05", "2.5"): "bf660efd760e8c663919714c13b28076571b6714dd700d6ead294ced9ee9b51d",
    ("0.10", "10"): "2748488ef424ea9efb09e284d5fc68128244349d6594bfc8a3118dc59a415082",
    ("0.10", "2.5"): "08e876e3aff481ac5b18bbe2f1031225a1664097ce66271e994a8359fc5932b8",
}

# alpha -> sha256 of `chi2-scan --cells 2..12`; at these levels the critical
# value of the smallest spaces is below 1, so m* is k - 1
HIGH_ALPHA_SCANS = {
    "0.5": "de11a528be3540f0400eeefdcb40b93c16a245b72f5025eec909782d8772333e",
    "0.9": "d6c285dbad955a8eced2ebe6a93d07ce39dd2602fc27b02b8b087b47c5e41a10",
}

# (cards, class card, alpha, factor) -> sha256 of `recommend`
RECOMMENDATIONS = {
    ("2,2", "2", "0.05", "10"): "6eb5d6d52a465ea7647b78bda8e0de62b52ffdbdae6d15caaec63adde6cc3091",
    ("2,2", "2", "0.01", "2.5"): "76b68aa8f8f00cb3980bbebddbc5b767a1b781d19c0af77a0898727c8ea26376",
    ("4,4", "2", "0.05", "10"): "688876c240b1de93c153160db048acdec68bf4be73a63a4ae3ee64a596b9e2b1",
    ("4,4", "2", "0.01", "2.5"): "2d5d33e2a2f3a0ef5d2dfd81035fe444643cfe0dcaf2c1170b81462d662926f3",
    ("3,5,7", "3", "0.05", "10"): "51bba3922795a5950b7fb6d135daa9fff91d3ee164b3576ed7751fd69d7cbdb1",
    ("3,5,7", "3", "0.01", "2.5"): "216bbbb0dda7989816daea975d6e927b773b124f30af9d60c5bdf8ed5aff11fc",
    ("2,2,2,2,2,2,2,2", "2", "0.05", "10"): "cddf07ef8d4003c142b04d7fd607f2966d994ae04f27041307b7398955a22c8c",
    ("2,2,2,2,2,2,2,2", "2", "0.01", "2.5"): "42a9d34d84e17cc45477f1585d8b0854433b00a3def3f08ff873eb9b865536cf",
    ("16,16", "4", "0.05", "10"): "a108489050ade6a33a88744e1ea64dc0de4b876facf0c104af2c7ad4f1c3a516",
    ("16,16", "4", "0.01", "2.5"): "cc3cad902a0f4c335f4cf69cfa2be07bdc5f3f8d80480c419bff6edd3167a386",
    ("3,3", "3", "0.05", "10"): "40a16a30b9400a56f732da2fb264e70a9d07c7e87aae99dc35011b799bac61ab",
    ("3,3", "3", "0.01", "2.5"): "cfd8b692b28105d11d0f921a53051fd0a0996b328793c1325bb60bcfce4d09d9",
    ("9", "2", "0.05", "10"): "39c1fbf7dca3472a9016f727d33d7d319d9f2b7ab615ef9a8f02cc12cb933b51",
    ("9", "2", "0.01", "2.5"): "f45c73ddcba40a6fd4e33cdb3689ec066db215821fd2e9ff58b8840396e34b5d",
}


def stdout_sha256(capsys, *argv):
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("alpha,factor", sorted(SCANS))
def test_chi2_scan_hash(capsys, alpha, factor):
    digest = stdout_sha256(capsys, "chi2-scan", "--cells", CELLS, "--alpha", alpha, "--factor", factor)
    assert digest == SCANS[alpha, factor]


@pytest.mark.parametrize("alpha", sorted(HIGH_ALPHA_SCANS))
def test_high_alpha_chi2_scan_hash(capsys, alpha):
    digest = stdout_sha256(capsys, "chi2-scan", "--cells", SMALL_CELLS, "--alpha", alpha)
    assert digest == HIGH_ALPHA_SCANS[alpha]


@pytest.mark.parametrize("cards,class_card,alpha,factor", sorted(RECOMMENDATIONS))
def test_recommend_hash(capsys, cards, class_card, alpha, factor):
    digest = stdout_sha256(
        capsys, "recommend", "--cards", cards, "--class-card", class_card,
        "--alpha", alpha, "--factor", factor,
    )
    assert digest == RECOMMENDATIONS[cards, class_card, alpha, factor]
