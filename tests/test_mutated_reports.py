"""The bytes of ``consrep verify``'s JSON report on the seven n<=2
instances, unmutated and under each fault-injection mutation.

The unmutated reports are pinned in ``perfbench/digests.json``, which
stays their one record: the benchmark checks them too, and a change that
re-records them there changes them here.  The other 28 runs are pinned
below: each instance under each mutation, with its exit code and the
sha256 of the report it writes.  A change to how ``verify`` explores
(which graph the later checks get, in what order states are numbered and
validated) must leave them as they are.
"""

import hashlib
import json
from pathlib import Path

import pytest

from consrep.cli import main

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"


def _unmutated_reports() -> list:
    """(n, values, budget, sha256) per key "n=N values=V budget=B"."""
    reports = json.loads(DIGESTS.read_text(encoding="utf-8"))["verify-n12"]
    return [pytest.param(*(field.split("=", 1)[1] for field in key.split()),
                         sha, id=key)
            for key, sha in sorted(reports.items())]

# (mutation, n, values, budget, exit code, sha256 of the report)
REPORTS = [
    ("no-phase1-susp", 1, "4", 0, 0,
     "e2bc0827b1e437968373dc03720dbfb61079f0f9f67086d5de758f4035a1482b"),
    ("no-phase1-susp", 2, "3,3", 0, 3,
     "6f2424894faf06858c467995863e4196812acfa3a4fb208858bb5e28eca81a7a"),
    ("no-phase1-susp", 2, "3,3", 1, 3,
     "84aafa2c5e131556214eb690886a3577752e9e35466d5dcab29ab2c9a0b73d1f"),
    ("no-phase1-susp", 2, "5,7", 0, 3,
     "19a734aa7507f18f3116b40ce13a7e964f7012291a56cfc295d125a3145096ad"),
    ("no-phase1-susp", 2, "5,7", 1, 3,
     "4adee07c9468599923dfc9f33a75870ae4b58805a28a11ad9fea7b28c4298e0a"),
    ("no-phase1-susp", 2, "7,5", 0, 3,
     "0f423a11d139c3807d7eefd1aef326e88ef0f439f95f233140a8bc9d08a0acba"),
    ("no-phase1-susp", 2, "7,5", 1, 3,
     "151878bb5c7ce350b6c07ff07ed8a1becda1622952110a6b7bea791886288a8f"),
    ("no-ti-protection", 1, "4", 0, 0,
     "581366b380ba9223f1f2e96aa1b9f2130fb2aac3c58a754bbab2b7cb42abddb5"),
    ("no-ti-protection", 2, "3,3", 0, 3,
     "58cb48a674752e75c8959fc2e52269207012cf89e4c6af78a0e0e7643a23eb68"),
    ("no-ti-protection", 2, "3,3", 1, 3,
     "3d8a482524a13a010ecfe3e1485b2e0cb730cdd7e85a66e4ba3dc9d246e3526d"),
    ("no-ti-protection", 2, "5,7", 0, 3,
     "4c6549ff8995e2dd4db538fba1f47e4d6f8d2ed99f4a2640de34d070f1489469"),
    ("no-ti-protection", 2, "5,7", 1, 3,
     "d44781caf9996905244300cb55fca1ba21d9b70a2774d0f474c5a279c993a902"),
    ("no-ti-protection", 2, "7,5", 0, 3,
     "a43cdd9ed41fa319cb19d61bd1fd688656f10eae96f688ba0ecba78a562b4356"),
    ("no-ti-protection", 2, "7,5", 1, 3,
     "f3d1fe82a457d0c9b5cfb247ad1050a4fd5fa2b0ca238da4783849733bde49b6"),
    ("skip-correct", 1, "4", 0, 0,
     "6593d38200e45012923febfa98b7d3e80fdb9e60536976397aac4f9b955f625e"),
    ("skip-correct", 2, "3,3", 0, 0,
     "18e625490e82286229fc6ea7805390b7989d42b80710045adfbca0b00704f540"),
    ("skip-correct", 2, "3,3", 1, 0,
     "8aced094ec5a6cc433ecba2f66de76fc71404253d9200aeceed613f63d397850"),
    ("skip-correct", 2, "5,7", 0, 3,
     "d0a72be715d432691bf8a4e71c94af14729c21c42cb110c0e1d8cfc773a71a86"),
    ("skip-correct", 2, "5,7", 1, 3,
     "81f17c4c8e2048fe4d4142a74efea64a38d387070652dd236da9ec5938751e96"),
    ("skip-correct", 2, "7,5", 0, 3,
     "ffea34ca4588acfb19aace21ab559b5368868108bec4578cf42330015d95dcd1"),
    ("skip-correct", 2, "7,5", 1, 3,
     "a71b60bc183ea851197ea25433a90b0fa953dc025f20997253f8ddff5b50cbd9"),
    ("sr1-deletes-in1", 1, "4", 0, 0,
     "4c04654033a8983ff5823de2a7e37a0c1bb7780bbf64a619a33c5a36cc5be231"),
    ("sr1-deletes-in1", 2, "3,3", 0, 3,
     "50cbb40e905891046d0a94d86dd22a250b95ff4230f75b136defcfbdfddfe232"),
    ("sr1-deletes-in1", 2, "3,3", 1, 3,
     "0a5652000a5a42694b308e0a2d6b53a615af7b59f84e049f38be893e1a9b2dfd"),
    ("sr1-deletes-in1", 2, "5,7", 0, 3,
     "9551ca0facbf07ac9d2bd02abf9677dd5a40641c461c3b970a3bac490e30cf9d"),
    ("sr1-deletes-in1", 2, "5,7", 1, 3,
     "3df69e6cd1c7e2c2c5292e1ba46bad01b8aa422738f7bdecdbb582ba36966b48"),
    ("sr1-deletes-in1", 2, "7,5", 0, 3,
     "fcf23e6f646d62bf5375aba851f5daa8f3bed08feb04ea701d239a85820e387f"),
    ("sr1-deletes-in1", 2, "7,5", 1, 3,
     "a30324d8ce422db33a762f90911d1c1372d6c8f047ddf36ad5a921e1db95567a"),
]


def test_every_mutated_run_is_pinned():
    runs = {(m, n, v, b) for m, n, v, b, _, _ in REPORTS}
    assert len(runs) == len(REPORTS) == 4 * 7


@pytest.mark.parametrize("mutation, n, values, budget, code, sha", REPORTS)
def test_mutated_verify_report_bytes(tmp_path, mutation, n, values, budget,
                                     code, sha):
    out = tmp_path / "report.json"
    assert main(["verify", "--n", str(n), "--values", values, "--budget",
                 str(budget), "--mutate", mutation, "--output", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


def test_every_unmutated_run_is_pinned():
    assert len(_unmutated_reports()) == 7


@pytest.mark.parametrize("n, values, budget, sha", _unmutated_reports())
def test_unmutated_verify_report_bytes(tmp_path, n, values, budget, sha):
    out = tmp_path / "report.json"
    assert main(["verify", "--n", n, "--values", values, "--budget", budget,
                 "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha
