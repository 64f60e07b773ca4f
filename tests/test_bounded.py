"""Hang corpus: public inputs that once ran without bound.

Each input runs the command line in a subprocess with a deadline and must
either answer (exit 0) or be refused with a domain error (exit 2) in time.
A subprocess is killed at its deadline, so a hang fails the test instead
of stalling the suite.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import knotfield
from knotfield.artin import artin_rep
from knotfield.braid import BraidWord
from knotfield.errors import BudgetExceeded

_SRC = str(Path(knotfield.__file__).resolve().parents[1])


def _wielandt(n: int) -> str:
    """The n-cycle with one chord, char poly x**n - x - 1."""
    rows = [[1 if j == i + 1 else 0 for j in range(n)] for i in range(n)]
    rows[-1][0] = rows[-1][1] = 1
    return ";".join(",".join(map(str, row)) for row in rows)


def _run(args: list[str], deadline: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "knotfield", *args], env=env, capture_output=True, text=True, timeout=deadline
    )


_BIG = str(10**309)  # above the largest float, about 1.8e308


@pytest.mark.parametrize(
    "matrix",
    [
        pytest.param("3,1,1;1,3,1;1,1,100000000000", id="perron-large-entry"),
        pytest.param(_wielandt(40), id="perron-wielandt-40"),
    ],
)
def test_perron_is_bounded(matrix):
    assert _run(["af", "perron", "--matrix", matrix], deadline=10).returncode in (0, 2)


def test_perron_large_discriminant_is_bounded():
    # trial division leaves the prime 5569235763293 of the disc 10**20 - 2 * 10**10 + 5
    assert _run(["af", "perron", "--matrix", "10000000000,1;1,1"], deadline=2).returncode == 0


@pytest.mark.parametrize(
    "matrix",
    [
        # disc 4 * 2100001 * 2100011 * 2100031: three primes above the trial bound
        pytest.param("1,1;9261189630804300341,1", id="perron-three-large-primes"),
        pytest.param(_BIG, id="perron-overflow-size-1"),
        pytest.param(f"{_BIG},{_BIG};1,1", id="perron-overflow-rational"),
        pytest.param(f"{_BIG},1,1;1,1,1;1,1,1", id="perron-overflow-size-3"),
    ],
)
def test_perron_is_refused_in_time(matrix):
    assert _run(["af", "perron", "--matrix", matrix], deadline=2).returncode == 2


def test_bratteli_levels_are_refused_in_time():
    # 3000000 levels of a 2x2 matrix once wrote 652 MB of DOT
    done = _run(["af", "bratteli", "--matrix", "2,1;1,1", "--levels", "3000000", "--dot"], deadline=2)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("BudgetExceeded: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "braid",
    [
        # a coset search over all conjugacy classes took about 20 s and 11 s on
        # these; the count of braid-fixed epimorphisms answers in about 0.12 s,
        # most of it interpreter start (CPython 3.11, 2 vCPUs)
        pytest.param("-1 2 -1 2 2", id="report-five-letters"),
        pytest.param("1 -2 1 -2 1 -2", id="report-borromean-rings"),
    ],
)
def test_correspondence_report_is_bounded(braid):
    done = _run(["report", "correspondence", "--braid", braid, "--max-index", "6"], deadline=10)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("power", [16, 64])
def test_abelianize_long_braid_is_bounded(power):
    # Artin's relators for (1 -2)^16 run to gigabytes; H1 comes from the
    # closure permutation, a 3-cycle for every power prime to 3
    done = _run(["linkgroup", "abelianize", " ".join(["1 -2"] * power)], deadline=5)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "Z\n"


@pytest.mark.parametrize(
    "args",
    [
        # both once expanded into 10**12 letters and died of MemoryError
        pytest.param(["braid", "components", "s1^1000000000000"], id="braid-alias-power"),
        pytest.param(["field", "--pq", "1000000000000", "1"], id="field-power-braid"),
    ],
)
def test_long_braid_words_are_refused_in_time(args):
    done = _run(args, deadline=2)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("BudgetExceeded: ") and done.stderr.count("\n") == 1


def test_strand_count_is_refused_in_time():
    # range() of this many strands raised OverflowError; 10**6 strands already take about 107 MiB
    done = _run(["--strands", "99999999999999999999", "braid", "components", "1"], deadline=2)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "BudgetExceeded: braid on 99999999999999999999 strands exceeds the limit of 1000000\n"


def test_deep_torus_mutation_is_refused_in_time():
    # step 12 of the path 1,2,3,... has an operand of 20737 terms; step 11
    # answers in about 2 s (CPython 3.11, 2 vCPUs)
    done = _run(["cluster", "mutate", "--dirs", "1,2,3,1,2,3,1,2,3,1,2,3"], deadline=10)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "BudgetExceeded: exchange operand of 20737 terms exceeds the limit of 10000\n"


_LONG_BRAID = " ".join(["1 -2"] * 16)


def test_present_long_braid_is_refused_in_time():
    # Artin's relators for (1 -2)^16 would run to gigabytes; (1 -2)^11
    # already passes the letter limit
    done = _run(["linkgroup", "present", _LONG_BRAID], deadline=2)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("BudgetExceeded: ") and done.stderr.count("\n") == 1


def test_present_first_braid_past_the_letter_limit_is_refused_in_time():
    # (1 -2)^10 holds 43784 relator letters; a suffix of (1 -2)^11 reaches 114628
    done = _run(["linkgroup", "present", " ".join(["1 -2"] * 11)], deadline=5)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("BudgetExceeded: ") and done.stderr.count("\n") == 1


def test_artin_rep_past_the_letter_limit_is_refused():
    # artin_rep walks the same suffixes as the presentation, so it stops at
    # the same limit instead of growing without bound
    with pytest.raises(BudgetExceeded, match="^Artin relators of a braid suffix reach 114628 letters"):
        artin_rep(BraidWord(3, (1, -2) * 11))


def test_subgroups_long_braid_is_bounded():
    # searched on the arc presentation, with Artin's relators never built
    done = _run(["linkgroup", "subgroups", _LONG_BRAID, "--max-index", "4"], deadline=10)
    assert done.returncode == 0, done.stderr


def test_subgroups_node_budget_is_reached_in_time():
    # 158 s at a budget of 10**7 definitions; about 15 s at 10**6 (CPython 3.11, 2 vCPUs)
    done = _run(["linkgroup", "subgroups", "1 1 1 1 1 -2 -2 -2 -2 -2", "--max-index", "10"], deadline=30)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        "BudgetExceeded: node budget of 1000000 definitions exhausted at max_index 10, with the search at index 10\n"
    )


def test_correspondence_report_to_index_ten_is_bounded():
    # a normal-only coset search took 93.5 s on Artin's relators and about 2 s
    # on the arc presentation; the count answers in about 0.08 s, nearly all of
    # it interpreter start-up (CPython 3.11, 2 vCPUs)
    done = _run(["report", "correspondence", "--braid", "-1 2 -1 2 2", "--max-index", "10"], deadline=30)
    assert done.returncode == 0, done.stderr


def test_correspondence_report_past_the_coset_search_is_bounded():
    # s1^5 s2^-5: the normal-only coset search ran out of its node budget
    # after 27 s, and needed 88 s without it (CPython 3.11, 2 vCPUs); row 10
    # is 1 + (5^2 - 1)/4, as M = I mod 5
    argv = ["--json", "report", "correspondence", "--braid", "1 1 1 1 1 -2 -2 -2 -2 -2", "--max-index", "10"]
    done = _run(argv, deadline=5)
    assert done.returncode == 0, done.stderr
    assert [row["normal_subgroups"] for row in json.loads(done.stdout)["rows"]] == [1, 1, 1, 1, 1, 1, 1, 1, 1, 7]


def test_correspondence_report_budget_is_reached_in_time():
    # (s1 s2)^6 has monodromy I, so the field stays Q(sqrt(5)) while the
    # 1442 letters at index <= 10 take 7082 * 1443 tuple steps
    braid = " ".join(["1 -2"] + ["1 2"] * 720)
    done = _run(["report", "correspondence", "--braid", braid, "--max-index", "10"], deadline=2)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        "BudgetExceeded: normal-subgroup count of 10219326 tuple steps at max_index 10 exceeds the limit of 10000000\n"
    )


@pytest.mark.parametrize(
    "args, deadline",
    [
        # a 99997 x 99997 exchange matrix; 1500 vertices took 5.2 s and 207 MiB
        pytest.param(["cluster", "enumerate", "--polygon", "100000"], 2, id="enumerate-polygon-100000"),
        # depth 3 built a dense 1653 x 32619 edge matrix in 18.6 s (CPython 3.11, 2 vCPUs)
        pytest.param(["cluster", "tree", "--depth", "4", "--polygon", "60"], 10, id="tree-polygon-60"),
        # 10000 seeds of rank 97 would hold 9.4 * 10**7 c-vector entries; it once answered after 8-9 s
        pytest.param(
            ["cluster", "enumerate", "--polygon", "100", "--max", "10000"], 5, id="enumerate-polygon-100-max-10000"
        ),
        # a torus seed costs about 0.85 KiB, so 10**6 of them would need about 0.8 GiB; refused at seed 183,487
        pytest.param(
            ["cluster", "enumerate", "--surface", "1", "1", "--max", "1000000"], 10, id="enumerate-torus-max-1000000"
        ),
    ],
)
def test_large_cluster_seeds_are_refused_in_time(args, deadline):
    done = _run(args, deadline=deadline)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("BudgetExceeded: ") and done.stderr.count("\n") == 1


def _ones(n: int) -> str:
    return ";".join([",".join(["1"] * n)] * n)


@pytest.mark.parametrize("size", [65, 200])
def test_large_perron_matrix_is_refused_in_time(size):
    # a 120x120 matrix of entries 0..3 took 33 s, most of it in the Sturm sequence
    done = _run(["af", "perron", "--matrix", _ones(size)], deadline=2)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == f"BudgetExceeded: Perron root of a {size}x{size} matrix exceeds the size limit of 64\n"


def test_laurent_check_trials_are_refused_in_time():
    # the trial loop once ran without end on this count
    done = _run(["cluster", "laurent-check", "--trials", "99999999999999999999"], deadline=2)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == (
        "BudgetExceeded: laurent-check of 99999999999999999999 trials at depth 8 exceeds the limit "
        "of 10000 mutation steps\n"
    )
