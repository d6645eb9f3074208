"""The one size bound: where it sits, what it admits, what it refuses."""

import inspect
import os
import resource
import subprocess
import sys
import time

import pytest

import cliffk
import rank_oracle
from cliffk import abgroup, blades, errors, ktheory, reps, structure
from cliffk.abgroup import (UNKNOWN_MAP, FGAbelianGroup, GroupHom, Sequence,
                            cokernel, kernel_key, smith_normal_form,
                            solve_exact)
from cliffk.blades import Signature, center_basis
from cliffk.errors import MAX_CELLS, BoundExceededError
from cliffk.ktheory import KTheory, point_k, reduced_k_rpn, thom_stability
from cliffk.reps import (build_rep, untwist_split_check,
                         verify_classification, verify_periodicity_iso)
from cliffk.structure import ScalarField

R = ScalarField.REAL
C = ScalarField.COMPLEX
Z = FGAbelianGroup.free(1)
TRIV = FGAbelianGroup.trivial()


def power(d: int, k: int) -> FGAbelianGroup:
    return FGAbelianGroup(0, (d,) * k)


def unknown_map(ns: int, nt: int) -> Sequence:
    return Sequence((power(2, ns), power(3, nt)), (UNKNOWN_MAP,))

# the only max_* parameter left in the public surface: perfbench/run.py
# passes it (ROADMAP item 1)
ALLOWED_KNOBS = {("verify_classification", "max_total")}


def _public_signatures():
    for name in cliffk.__all__:
        obj = getattr(cliffk, name)
        if inspect.isclass(obj):
            members = [(f"{name}.{attr}", fn)
                       for attr, fn in vars(obj).items()
                       if not attr.startswith("_")
                       and inspect.isfunction(getattr(fn, "__func__", fn))]
            members.append((name, obj))
        elif callable(obj):
            members = [(name, obj)]
        else:
            continue
        for qualname, fn in members:
            try:
                sig = inspect.signature(getattr(fn, "__func__", fn))
            except ValueError:
                continue
            yield qualname, sig


def test_no_size_knobs():
    found = {(qualname, param)
             for qualname, sig in _public_signatures()
             for param in sig.parameters if param.startswith("max_")}
    assert found == ALLOWED_KNOBS


class _Reached(Exception):
    pass


# (module whose check_size the site calls, label prefix, admitted, refused):
# the admitted call is the largest that fits, the refused one the next size.
# blade_matrices is the rank oracle's; verify_classification keeps its label
SITES = {
    "build_rep real": (reps, "build_rep", lambda: build_rep(Signature(30, 0)),
                       lambda: build_rep(Signature(31, 0))),
    "build_rep complex": (reps, "build_rep",
                          lambda: build_rep(Signature(0, 30), C),
                          lambda: build_rep(Signature(0, 31), C)),
    "blade_matrices": (rank_oracle, "blade_matrices",
                       lambda: rank_oracle.blade_matrices(
                           build_rep(Signature(0, 12))),
                       lambda: rank_oracle.blade_matrices(
                           build_rep(Signature(0, 13)))),
    "verify_classification": (
        reps, "blade_matrices",
        lambda: verify_classification(Signature(12, 0)),
        lambda: verify_classification(Signature(0, 13))),
    "center_basis": (blades, "center_basis",
                     lambda: center_basis(Signature(8, 8)),
                     lambda: center_basis(Signature(9, 8))),
    "verify_periodicity_iso": (reps, "verify_periodicity_iso",
                               lambda: verify_periodicity_iso(14),
                               lambda: verify_periodicity_iso(15)),
    "untwist_split_check": (reps, "untwist_split_check",
                            lambda: untwist_split_check(14),
                            lambda: untwist_split_check(15)),
    # the K path builds no representation: its bound is classify's digit
    # limit (n <= 14284), and the admitted call is cheap enough to run
    "point_k": (None, None,
                lambda: ktheory._point_k.__wrapped__(14284, KTheory.KO) == Z,
                lambda: point_k(14285, KTheory.KO)),
    "reduced_k_rpn": (None, None,
                      lambda: reduced_k_rpn(14284, KTheory.KU) ==
                      FGAbelianGroup(0, (1 << 7142,)),
                      lambda: reduced_k_rpn(14285, KTheory.KU)),
    # transforms of 1 + 1023**2 and 1 + 1024**2 entries
    "smith_normal_form": (abgroup, "Smith normal form",
                          lambda: smith_normal_form([[1] * 1023]),
                          lambda: smith_normal_form([[1] * 1024])),
    # the kernel key's HNF of s rows in s + t coordinates, (2s + t)(s + t)
    # entries, checked before the rows are built
    "kernel_key": (abgroup, "Hermite normal form",
                   lambda: kernel_key(GroupHom.zero(power(3, 724), TRIV)),
                   lambda: kernel_key(GroupHom.zero(power(3, 725), TRIV))),
    # the image key's HNF, (k + n) n entries, checked before the cokernel
    # builds the n x n identity of Z^n
    "cokernel": (abgroup, "Hermite normal form",
                 lambda: cokernel(GroupHom.zero(TRIV,
                                                FGAbelianGroup.free(1024))),
                 lambda: cokernel(GroupHom.zero(TRIV,
                                                FGAbelianGroup.free(1025)))),
    # an unknown map's candidate matrices, checked before they are counted:
    # Z/2 -> Z/3 has the zero map only, so no ceiling stops the search
    "solve_exact": (abgroup, "candidates of unknown map",
                    lambda: solve_exact(unknown_map(1024, 1024), 1),
                    lambda: solve_exact(unknown_map(1024, 1025), 1)),
}


@pytest.mark.parametrize("site", SITES)
def test_largest_admitted_size(site, monkeypatch):
    # stop the admitted call at its site's check, after the real check passed,
    # so the construction itself is not run
    module, label, admitted, _refused = SITES[site]
    if module is None:
        assert admitted()
        return
    seen = []

    def spy(what, cells, *parts):
        errors.check_size(what, cells, *parts)
        if what.startswith(label):
            seen.append(cells)
            raise _Reached

    monkeypatch.setattr(module, "check_size", spy)
    with pytest.raises(_Reached):
        admitted()
    assert seen and seen[-1] <= MAX_CELLS


@pytest.mark.parametrize("site", SITES)
def test_first_refused_size(site):
    _module, _label, _admitted, refused = SITES[site]
    start = time.perf_counter()
    with pytest.raises(BoundExceededError):
        refused()
    assert time.perf_counter() - start < 1


def test_kernel_key_refuses_before_building_rows():
    # its 5000 rows of 5000 entries would take seconds to build
    f = GroupHom.zero(power(3, 5000), TRIV)
    start = time.perf_counter()
    with pytest.raises(BoundExceededError):
        kernel_key(f)
    assert time.perf_counter() - start < 0.5


def test_bound_is_inclusive():
    errors.check_size("edge", MAX_CELLS)
    with pytest.raises(BoundExceededError):
        errors.check_size("edge", MAX_CELLS + 1)


def test_label_is_formatted_only_on_refusal(monkeypatch):
    big, small = FGAbelianGroup(1100, (2, 4)), FGAbelianGroup(1000, (3,))
    with pytest.raises(BoundExceededError) as refused:
        GroupHom.zero(big, small)
    assert str(refused.value) == (
        "zero map Z^1100 + Z/2 + Z/4 -> Z^1000 + Z/3 would build more than "
        f"{MAX_CELLS} entries")
    # an admitted zero map never prints its groups
    calls = []
    monkeypatch.setattr(FGAbelianGroup, "__str__",
                        lambda self: calls.append(self) or "G")
    GroupHom.zero(FGAbelianGroup(1, (2,)), FGAbelianGroup(0, (3,)))
    assert calls == []


def test_classify_unlimited_string_digits_uses_default(monkeypatch):
    # a limit of 0 means unlimited; classify then falls back to the default
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
    edge = structure._max_printable_exponent(
        sys.int_info.default_max_str_digits)
    assert edge == 14284
    with pytest.raises(BoundExceededError):
        structure._classify.__wrapped__(Signature(edge + 1, 0), R)
    assert structure._classify.__wrapped__(Signature(edge, 0), C).factors == 1


def test_classify_follows_raised_string_limit(monkeypatch):
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 5000)
    desc = structure._classify.__wrapped__(Signature(15000, 0), R)
    assert desc.matrix_size == 1 << 7500


def test_classify_skips_the_digit_test_for_small_n(monkeypatch):
    # 2**n has at most d digits when n <= 3d (8**d < 10**d), so classify
    # builds no 10**d there; above 3d the exact test still decides
    expect = structure._classify.__wrapped__(Signature(12, 0), R)

    def refuse(digits):
        raise AssertionError(f"exact digit test run for {digits} digits")

    monkeypatch.setattr(structure, "_max_printable_exponent", refuse)
    assert structure._classify.__wrapped__(Signature(12, 0), R) == expect
    digits = (sys.get_int_max_str_digits()
              or sys.int_info.default_max_str_digits)
    structure._classify.__wrapped__(Signature(3 * digits, 0), R)
    with pytest.raises(AssertionError, match="exact digit test"):
        structure._classify.__wrapped__(Signature(3 * digits + 1, 0), R)


CHILD = """
from cliffk.cli import main
from cliffk.errors import BoundExceededError
from cliffk.ktheory import thom_stability
for argv in (["bott", "--max", "14285"], ["rpn", "14285"],
             ["bott", "--max", "10000000"], ["rpn", "10000000"]):
    assert main(argv) == 2, argv
try:
    thom_stability(14276, 0)
except BoundExceededError:
    pass
else:
    raise SystemExit("thom_stability(14276, 0) was admitted")
"""


def test_thom_stability_edge():
    # the largest signature it classifies is (0, n + r_max + 9)
    assert thom_stability(14275, 0)
    with pytest.raises(BoundExceededError):
        thom_stability(14276, 0)


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_refusals_stay_small():
    # one child, capped at 1 GiB of address space, runs every refusal;
    # its peak resident set must stay under 50 MB
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", CHILD], env=env,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE,
                            preexec_fn=_limit_address_space)
    _pid, status, usage = os.wait4(proc.pid, 0)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert os.waitstatus_to_exitcode(status) == 0, err
    assert time.perf_counter() - start < 5
    assert usage.ru_maxrss < 50 * 1024  # kilobytes on Linux
