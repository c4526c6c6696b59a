"""Pinned correct outputs for the benchmark workloads.

Every value here was computed with the leibnizlat sources at commit b189426
and is invariant under a change of basis, so one pin covers every seed:

* corpus: the 17 check verdicts of each corpus member (one letter per check,
  in ``CHECK_IDS`` order: p = pass, f = fail, n = not_applicable). Every
  ``@basisN`` variant of a member has the same verdicts as the member; this was
  confirmed over the whole corpus for seeds 3 and 7. No member adds a note.
  Summed over a corpus these verdicts reproduce the CLI report byte for byte;
  ``CORPUS_REPORT_SHA256`` holds the report hash per seed. The report differs
  between seeds only in its ``seed`` field; full CLI runs confirmed the hashes
  of seeds 0, 1, 2 and 7 (seed 7 is the golden hash of the ROADMAP).
* lattice workloads: lattice invariants and verdicts of each base algebra,
  confirmed on three bases each.
* rational-analyze: structure-report fields of each base algebra over Q,
  confirmed on three integer bases each.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple

CHECK_IDS = (
    "thm-abalab",
    "prop-usm2",
    "thm-alab",
    "thm-ideal",
    "cor-J-span",
    "lem-two",
    "lem-three",
    "lem-1dim",
    "lem-kernel",
    "lem-qi",
    "lem-wqi-phi",
    "lem-cyclic",
    "lem-int",
    "thm-nonlie-suff",
    "thm-sqrt-suff",
    "rem-equiv",
    "thm-sym-suff",
)
STATUS = {"p": "pass", "f": "fail", "n": "not_applicable"}
REPORT_SCHEMA_VERSION = 1

LatticePin = namedtuple(
    "LatticePin",
    "nodes height atoms coatoms modular usm lsm all_wqi frattini_dim covers",
)

CORPUS_STATUS = {
    "abelian(1)/F2": "ppnnpnnnppppnnnpp",
    "cyclic_nilpotent(1)/F2": "ppnnpnnnppppnnnpp",
    "abelian(2)/F2": "ppnnppnppppnnnnpp",
    "cyclic_nilpotent(2)/F2": "ppnnpnnppppppnnpp",
    "abelian(3)/F2": "ppnnpnnnpppnnnnpp",
    "cyclic_nilpotent(3)/F2": "ppnnpnnnpppppnnpn",
    "abelian(4)/F2": "ppnnpnnnpppnnnnpp",
    "cyclic_nilpotent(4)/F2": "ppnnpnnnpppppnnpn",
    "cyclic_solvable(2)/F2": "pppnppnpppppnnnpn",
    "almost_abelian_lie(2)/F2": "pppnpppppppnnnnpp",
    "almost_abelian_nonlie(2)/F2": "pppnppnpppppnpnpn",
    "cyclic_solvable(3)/F2": "ppnnpnnnpppppnnpn",
    "almost_abelian_lie(3)/F2": "pppnpnpnpppnnnnpp",
    "almost_abelian_nonlie(3)/F2": "pppnpnpnpppnnpnpn",
    "cyclic_solvable(4)/F2": "ppnnpnnnpppppnnpn",
    "almost_abelian_lie(4)/F2": "pppnpnnnpppnnnnpp",
    "almost_abelian_nonlie(4)/F2": "pppnpnnnpppnnpnpn",
    "abelian(1)/F3": "ppnppnnnppppnnnpp",
    "cyclic_nilpotent(1)/F3": "ppnppnnnppppnnnpp",
    "abelian(2)/F3": "ppnpppnppppnnnnpp",
    "cyclic_nilpotent(2)/F3": "ppnppnnppppppnnpp",
    "abelian(3)/F3": "ppnppnnnpppnnnnpp",
    "cyclic_nilpotent(3)/F3": "ppnppnnnpppppnnpn",
    "abelian(4)/F3": "ppnppnnnpppnnnnpp",
    "cyclic_nilpotent(4)/F3": "ppnppnnnpppppnnpn",
    "cyclic_solvable(2)/F3": "ppppppnpppppnnnpn",
    "almost_abelian_lie(2)/F3": "pppppppppppnnnppp",
    "almost_abelian_nonlie(2)/F3": "ppppppnpppppnpnpn",
    "cyclic_solvable(3)/F3": "ppnppnnnpppppnnpn",
    "almost_abelian_lie(3)/F3": "pppppnpnpppnnnppp",
    "almost_abelian_nonlie(3)/F3": "pppppnpnpppnnpnpn",
    "cyclic_solvable(4)/F3": "ppnppnnnpppppnnpn",
    "almost_abelian_lie(4)/F3": "pppppnnnpppnnnppp",
    "almost_abelian_nonlie(4)/F3": "pppppnnnpppnnpnpn",
    "abelian(1)/F5": "ppnppnnnppppnnnpp",
    "cyclic_nilpotent(1)/F5": "ppnppnnnppppnnnpp",
    "abelian(2)/F5": "ppnpppnppppnnnnpp",
    "cyclic_nilpotent(2)/F5": "ppnppnnppppppnnpp",
    "abelian(3)/F5": "ppnppnnnpnpnnnnpp",
    "cyclic_nilpotent(3)/F5": "ppnppnnnpnpppnnpn",
    "cyclic_solvable(2)/F5": "ppppppnpppppnnnpn",
    "almost_abelian_lie(2)/F5": "pppppppppppnnnppp",
    "almost_abelian_nonlie(2)/F5": "ppppppnpppppnpnpn",
    "cyclic_solvable(3)/F5": "ppnppnnnpnpppnnpn",
    "almost_abelian_lie(3)/F5": "pppppnpnpnpnnnppp",
    "almost_abelian_nonlie(3)/F5": "pppppnpnpnpnnpnpn",
    "family_nonlie_ii(k=2,m=0)/F2": "pppnppnpppppnpnpn",
    "family_nonlie_ii(k=2,m=1)/F2": "pppnpnpnpppnnpnpn",
    "family_nonlie_ii(k=2,m=2)/F2": "pppnpnnnpppnnpnpn",
    "family_nonlie_ii(k=3,m=0)/F2": "ppnnpnnnppppppnpn",
    "family_nonlie_ii(k=3,m=1)/F2": "ppnnpnnnpppnppnpn",
    "family_nonlie_ii(k=2,m=0)/F3": "ppppppnpppppnpnpn",
    "family_nonlie_ii(k=2,m=1)/F3": "pppppnpnpppnnpnpn",
    "family_nonlie_ii(k=2,m=2)/F3": "pppppnnnpppnnpnpn",
    "family_nonlie_ii(k=3,m=0)/F3": "ppnppnnnppppppnpn",
    "family_nonlie_ii(k=3,m=1)/F3": "ppnppnnnpppnppnpn",
    "family_sqrt(k=1,m=1)/F3": "pppppppppppnnnppp",
    "family_sqrt(k=1,m=2)/F3": "pppppnpnpppnnnppp",
    "family_sqrt(k=2,m=1)/F3": "ppnppnnnpppnpnppp",
    "family_sqrt(k=2,m=2)/F3": "ppnppnnnpppnpnppp",
    "family_sqrt(k=1,m=1)/F5": "pppppppppppnnnppp",
    "family_sqrt(k=1,m=2)/F5": "pppppnpnpnpnnnppp",
    "family_sqrt(k=2,m=1)/F5": "ppnppnnnpnpnpnppp",
    "symmetric_iv(m=1)/F3": "ppnppnnnpppnpnnpp",
    "symmetric_iv(m=2)/F3": "ppnppnnnpppnpnnpp",
    "symmetric_iv(m=1)/F5": "ppnppnnnpnpnpnnpp",
    "extraspecial_plus_center(z=0)/F3": "ppnppnnppppppnnpp",
    "extraspecial_plus_center(z=1)/F3": "ppnppnnnpppnpnnpp",
    "extraspecial_plus_center(z=0)/F5": "ppnppnnppppppnnpp",
    "extraspecial_plus_center(z=1)/F5": "ppnppnnnpnpnpnnpp",
    "heisenberg/F2": "nnnnnnnnnpnnnnnpn",
    "heisenberg/F3": "nnnnnnnnnpnnnnnpn",
    "heisenberg/F5": "nnnnnnnnnnnnnnnpn",
    "dim2_F2_#001": "ppnnppnppppnnnnpp",
    "dim2_F2_#002": "ppnnpnnppppppnnpp",
    "dim2_F2_#003": "pppnppnpppppnnnpn",
    "dim2_F2_#004": "pppnppnpppppnnnpn",
    "dim2_F2_#005": "pppnpppppppnnnnpp",
    "dim2_F2_#006": "pppnppnpppppnnnpn",
    "dim2_F2_#007": "pppnppnpppppnnnpn",
    "dim2_F2_#008": "pppnpppppppnnnnpp",
    "dim2_F2_#009": "pppnpppppppnnnnpp",
    "dim2_F2_#010": "ppnnpnnppppppnnpp",
    "dim2_F2_#011": "pppnppnpppppnnnpn",
    "dim2_F2_#012": "pppnppnpppppnnnpn",
    "dim2_F2_#013": "ppnnpnnppppppnnpp",
}

LATTICE_PINS = {
    "almost_abelian_lie(3)/F7": LatticePin(116, 3, 57, 57, True, True, True, True, 0, 570),
    "abelian(3)/F7": LatticePin(116, 3, 57, 57, True, True, True, True, 0, 570),
    "almost_abelian_lie(4)/F2": LatticePin(67, 4, 15, 15, True, True, True, True, 0, 240),
    "almost_abelian_lie(3)/F5": LatticePin(64, 3, 31, 31, True, True, True, True, 0, 248),
    "abelian(4)/F2": LatticePin(67, 4, 15, 15, True, True, True, True, 0, 240),
    "cyclic_nilpotent(4)/F7": LatticePin(117, 4, 57, 1, True, True, True, True, 3, 571),
    "cyclic_nilpotent(4)/F5": LatticePin(65, 4, 31, 1, True, True, True, True, 3, 249),
    "cyclic_solvable(4)/F5": LatticePin(66, 4, 31, 2, True, True, True, True, 2, 251),
    "heisenberg/F13": LatticePin(199, 3, 183, 14, False, False, True, False, 1, 393),
    "heisenberg/F11": LatticePin(147, 3, 133, 12, False, False, True, False, 1, 289),
}

RATIONAL_PINS = {
    "heisenberg/Q": dict(
        dim=3, shape="extraspecial", is_lie=True, is_symmetric=True, is_nilpotent=True,
        nilpotency_class=2, is_solvable=True, derived_length=2, is_supersolvable=None,
        dim_kernel=0, dim_square=1, dim_center=1, dim_square_zero=None, dim_frattini=None,
    ),
    "extraspecial_plus_center(z=2)/Q": dict(
        dim=4, shape="other", is_lie=False, is_symmetric=True, is_nilpotent=True,
        nilpotency_class=2, is_solvable=True, derived_length=2, is_supersolvable=None,
        dim_kernel=1, dim_square=1, dim_center=3, dim_square_zero=None, dim_frattini=None,
    ),
    "cyclic_nilpotent(5)/Q": dict(
        dim=5, shape="other", is_lie=False, is_symmetric=False, is_nilpotent=True,
        nilpotency_class=5, is_solvable=True, derived_length=2, is_supersolvable=None,
        dim_kernel=4, dim_square=4, dim_center=1, dim_square_zero=None, dim_frattini=None,
    ),
    "family_sqrt(k=2,m=3)/Q": dict(
        dim=5, shape="other", is_lie=False, is_symmetric=True, is_nilpotent=False,
        nilpotency_class=None, is_solvable=True, derived_length=2, is_supersolvable=None,
        dim_kernel=1, dim_square=4, dim_center=1, dim_square_zero=None, dim_frattini=None,
    ),
    "cyclic_solvable(6)/Q": dict(
        dim=6, shape="other", is_lie=False, is_symmetric=False, is_nilpotent=False,
        nilpotency_class=None, is_solvable=True, derived_length=2, is_supersolvable=None,
        dim_kernel=5, dim_square=5, dim_center=1, dim_square_zero=None, dim_frattini=None,
    ),
    "symmetric_iv(m=4)/Q": dict(
        dim=6, shape="other", is_lie=False, is_symmetric=True, is_nilpotent=False,
        nilpotency_class=None, is_solvable=True, derived_length=2, is_supersolvable=None,
        dim_kernel=1, dim_square=5, dim_center=1, dim_square_zero=None, dim_frattini=None,
    ),
    "almost_abelian_lie(7)/Q": dict(
        dim=7, shape="almost_abelian_lie", is_lie=True, is_symmetric=True, is_nilpotent=False,
        nilpotency_class=None, is_solvable=True, derived_length=2, is_supersolvable=None,
        dim_kernel=0, dim_square=6, dim_center=0, dim_square_zero=None, dim_frattini=None,
    ),
    "almost_abelian_nonlie(8)/Q": dict(
        dim=8, shape="almost_abelian_nonlie", is_lie=False, is_symmetric=False,
        is_nilpotent=False, nilpotency_class=None, is_solvable=True, derived_length=2,
        is_supersolvable=None, dim_kernel=7, dim_square=7, dim_center=0, dim_square_zero=None,
        dim_frattini=None,
    ),
    "family_nonlie_ii(k=3,m=6)/Q": dict(
        dim=9, shape="other", is_lie=False, is_symmetric=False, is_nilpotent=False,
        nilpotency_class=None, is_solvable=True, derived_length=2, is_supersolvable=None,
        dim_kernel=8, dim_square=8, dim_center=1, dim_square_zero=None, dim_frattini=None,
    ),
}

CORPUS_REPORT_SHA256 = {
    0: "f0169efb0bbf0620c8d6a16100a0bb93cb17d9b76297e9aa93ccc8f1275a7e05",
    1: "836c1f01f8ff81dc5e539413dc651c438351e7702bdab6ae5def8559b2f37f9d",
    2: "8548d5552c22f42a653e6934e8b93780ed8c92d3730ce4fba826b01a4cb58c28",
    3: "8c8e6a1cac0677ee59296c37ad3a79fa6d804f5d549235e5bcaa21af340e2cd1",
    4: "ae6e7a6d4d73121736b77ed00476c336ef382541dc11abea3891dbddb4551069",
    5: "5713a16926392b4bddad870c5e6aecf4c52edfe4a86c5673f9b5d4fa089ea2d5",
    6: "b2040efc504eeb9058cb017b1f847b22ba95a016be070bec626e671b7c374218",
    7: "fa52b6927f29aeceb341d81805f32f0a9902683be24987c4c9ad786adf3c8537",
    8: "eda15b8cb3c17198bbc2dd742970f337cfae04144168ce66891c6270119ba110",
    9: "cd2414f336349ad712b5fd91e6beb3b88669cb932c46787f85161505541a69e9",
    10: "21604c2dd42d062a291227d1d506c3909ff0f57f1e34a37349be82c1cbf1a921",
    11: "e643647168316bfd4ed786bbf2c5367afeabf2d11000924d33c436bce3a44978",
    12: "c3df08648ad6091a8343502d30251c679e4ca85bc8d27723ef3594bc8cc8439c",
    13: "a4498e0b468c79bf1d0dc8c1cd8afb5d9c06426bb43f2da289513e10fbcf1444",
    14: "0d654047f9ae6e88365799c812856612a00340a703ab94062d23427aa807c32c",
    15: "1af64ac5df1075dbecccb687677fb8cb1b54ed46178bdef2e979ffbc6fb1d89b",
    16: "bdadef8e3c5c0305e9d9a0fb7bacbd287a42cfabd5e79407253a0c89c452b628",
    17: "7418e8f427fd347eb5e481ed3fffdf7e2dda654607dd5febb3f5537ab5e0392c",
    18: "59a86fa7e952ae8e0822ec3e307dbdc5401ab8741d3156c0193f307110ff94b5",
    19: "e33367a1819446376e4443b0a5184f9aa866b480a3e9ba4f769c9c5496cf89c8",
    20: "b64b634f9015d0b6528b61ae84eb7fde3e9ad56eb51ba786d5c1f6e9886768e9",
}


def member_of(name: str) -> str:
    """Corpus member a (possibly basis-changed) corpus algebra belongs to."""
    return name.split("@", 1)[0]


def expected_summary(names, seed: int) -> dict:
    """The summary ``verify --corpus`` prints for these algebras, from the pins."""
    checks = {
        cid: {"pass": 0, "fail": 0, "not_applicable": 0, "failures": []} for cid in CHECK_IDS
    }
    for name in names:
        for cid, letter in zip(CHECK_IDS, CORPUS_STATUS[member_of(name)]):
            checks[cid][STATUS[letter]] += 1
    return {
        "algebras": len(names),
        "checks": checks,
        "notes": [],
        "ok": all(entry["fail"] == 0 for entry in checks.values()),
        "seed": seed,
    }


def render_report(summary: dict) -> str:
    """The JSON report text, rendered independently of specfile."""
    doc = dict(summary)
    doc["schema_version"] = REPORT_SCHEMA_VERSION
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def expected_corpus_sha256(names, seed: int) -> str:
    """Pinned report hash of the whole corpus, or the one the pins imply."""
    if seed in CORPUS_REPORT_SHA256:
        return CORPUS_REPORT_SHA256[seed]
    return sha256(render_report(expected_summary(names, seed)))


def corpus_report_mismatches(text: str, names, seed: int):
    """One entry per check whose counts differ, plus one if the report text differs.

    Returns (ops, failed, problems): 17 per-check operations and the report.
    """
    expected = expected_summary(names, seed)
    problems = []
    failed = 0
    try:
        got = json.loads(text)["checks"]
    except (ValueError, KeyError, TypeError):
        got = {}
    for cid in CHECK_IDS:
        want = expected["checks"][cid]
        have = got.get(cid, {})
        if any(have.get(k) != want[k] for k in ("pass", "fail", "not_applicable")):
            failed += 1
            problems.append("check %s: counts %s, pinned %s" % (cid, _counts(have), _counts(want)))
    if text != render_report(expected):
        failed += 1
        problems.append(
            "report sha256 %s, pinned %s" % (sha256(text), sha256(render_report(expected)))
        )
    return len(CHECK_IDS) + 1, failed, problems


def _counts(entry):
    return tuple(entry.get(k) for k in ("pass", "fail", "not_applicable"))
