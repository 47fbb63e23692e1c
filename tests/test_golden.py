"""Golden certificates: pinned SHA-256 hashes of the certificate bytes,
and of their rendering by `report`, and an identity that the pinned
certificates satisfy from their fields alone.

The hashes were recorded before the root arithmetic moved from epsilon
vectors to the integer root lattice.  Any change of representation,
caching or elimination order must keep every certificate byte-identical.
So must a change of sign convention for the structure constants: the
certificates are the same under the extraspecial-pair Jacobi table and
under seeded twists of the engine's models.
"""

import hashlib
import json
from fractions import Fraction
from functools import lru_cache

import pytest

from adapted_pairs import verify
from adapted_pairs.certificate import certificate_dict, to_json
from adapted_pairs.cli import render_certificate
from adapted_pairs.construction import build_case, in_scope_cases
from adapted_pairs.chevalley import build_structure_table
from adapted_pairs.verify import run_case
from engine_oracle import WrappedTable, sign_twist, structure_table_oracle

GOLDEN = {
    ('B', 2, 2): "34db2cf39761f676d27fa08400ed7df56acf2da17c161d9a3c5aaa2a4b907a3f",
    ('B', 3, 2): "afac3e789316989b1ee7a339b24719e85f6d503948cdc0aa41dceb3b6644a10b",
    ('B', 4, 2): "1b07cf44c23ef0bf4f365261365123a8b71ab1ada0180acca5e50de3f806f35e",
    ('B', 4, 4): "f4194e741e9600e643d15bc13c9393ff48f32b14e2028773cd1d905374c40b1c",
    ('B', 5, 2): "2fd5d665603fd0c3d5d88071b393cc155a7693a6e2c1dd946702bf7d24d77384",
    ('B', 5, 4): "708b78af181035e2faa4f775e56fe3ccd1d146afc9cd2ee3a20316e67773ca7c",
    ('B', 6, 2): "fe3e7381df8a6448be7ff4935d4300aecea58198184e8101668a903203f678ae",
    ('B', 6, 4): "f623f295e58e3157be9bfed97b0a869d8f270426d5601b6f9c103c8f8a750e9f",
    ('B', 6, 6): "7a91040dfc2ebeb5bd0c33e74831fdbfaa734f02a5829d86d2324bc718dcc8e8",
    ('B', 7, 2): "25738427c54dcb655679780e397599b1de6939d5c3d08e2e6c13663657475eee",
    ('B', 7, 4): "906285e911d0bcb71194d25f7104197736eb61d67ebb057c41d153d1dd2f8ea8",
    ('B', 7, 6): "acd2568d7feec7b68950c3840c2d1a20c371771b94975a3b060f49a3a306000d",
    ('B', 8, 2): "39001ed563995aa1046b2230848ebd4310879acf4cdcdb823c1d0337a6e9a2c1",
    ('B', 8, 4): "543850b7226fb52e4bb6194d2e2640f142e542c76762e99c67395128cb26759e",
    ('B', 8, 6): "55ae88d13237267162ecd24c1e495ad3ddd7fa952f5c86c7ac8f1f707b7dcc4e",
    ('B', 8, 8): "c0b5ab4c9e82144a981dd15b79fcf407ae0f3506b71e58b232943393c0f53fc9",
    ('D', 4, 2): "00fa08ee9e6d03850b8f9fb28c9f604c748c72963afb7b5b9959e4fe98305695",
    ('D', 5, 2): "080e5801bd1c4658f962c1d9b73630f71ad3b9ff6689e52e1eb04a359dc7970a",
    ('D', 6, 2): "68babae57b9ecee91190e5b6953ef747ba17e5a7da163065387326c36466975a",
    ('D', 6, 4): "1fd9a96b10effdc7d4932bfeea1c8e83dcc40b9d84b753972921f8fd69f5c136",
    ('D', 7, 2): "60a6bfa2fa5b1b9de44b4c8d03fa84ecb75125bae6a70e6cfc71967d13a2393e",
    ('D', 7, 4): "df7262e75bfae86c59fc03eb040d0b7304bc5893ba89774e1cbb0f523ad052fe",
    ('D', 8, 2): "080deb61c61048936d913b7cdd70d1e5238fb14f8dfb989245380fdbcc5324a1",
    ('D', 8, 4): "c09fec5bff1fd4b92dccd6102d1760ff9dcd5a14b6eb28ab34d9e9c95abdbd7c",
    ('D', 8, 6): "961570fa99aa8b3114ac34ebfa496c68c5c413b37a2d409f60d32b21b390260e",
    ('D', 6, 6): "770506a7a4646483932e1403c617c63209fb9fd76d6be3cbe450adde5b7e5999",
    ('D', 8, 8): "c80c4e9cedd0d6fdeb960845fb585263bbd44417c6d933b91bc97e99d5fe3d60",
    ('E6', 6, 6): "c69470273d3c56d6c46f54d06b1741be142d8772a47a09e12a07eda49954e9c9",
    ('E7', 7, 3): "ace917b5430b1a7c183f4975e389a3e2989474fc74709ebb36f5599e32ea6479",
    ('D', 8, 7): "2416d10c98ac3fb89ed587b4e1a4086106d7d949a08a6195e0f2a18611484fae",
    ('E6', 6, 1): "e8f1873cebacf0b0e5bc7250a8ed01e84065c955c0961754d8bce94e7680b089",
}


def test_golden_covers_the_rank_8_sweep_and_two_flips():
    assert set(GOLDEN) == set(in_scope_cases(8)) | {("D", 8, 7), ("E6", 6, 1)}


@pytest.mark.parametrize("family,n,s", sorted(GOLDEN))
def test_certificate_bytes_unchanged(family, n, s):
    text = to_json(certificate_dict(run_case(family, n, s)))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[(family, n, s)]


# The case data behind the certificates, past the ranks pinned above: per
# case, every Gamma set, S+/S-/Sm, T, T* and the closed-form T, as simple-root
# coefficient tuples (the candidate holds codes, read back through
# `by_code`).  Recorded before the case builders were rewritten around the
# Heisenberg-set helpers.
CANDIDATE_CASES = (
    in_scope_cases(16)
    + [("D", n, n - 1) for n in range(6, 17, 2)]
    + [("E6", 6, 1)]
)
CANDIDATE_DATA_SHA256 = (
    "c2c6bf4cba64d78692024c8656993506793f7fcadfa290529d6088dad1ac77b5"
)


def _candidate_record(family, n, s):
    cand = build_case(family, n, s)
    root = cand.system.by_code
    coeffs = lambda codes: tuple(root[c] for c in codes)
    gammas = tuple(
        (root[g], tuple(sorted(coeffs(members))))
        for g, members in cand.gamma_sets.items()
    )
    return (
        (family, n, s),
        gammas,
        coeffs(cand.S_plus),
        coeffs(cand.S_minus),
        coeffs(cand.S_mixed),
        coeffs(cand.T),
        coeffs(cand.T_star),
        coeffs(cand.T_expected),
    )


def test_candidate_data_unchanged():
    assert len(CANDIDATE_CASES) == 128
    digest = hashlib.sha256()
    for case in CANDIDATE_CASES:
        digest.update(repr(_candidate_record(*case)).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == CANDIDATE_DATA_SHA256


# One hash over the certificates of `sweep --max-rank 12 --out` and of
# `verify --out` on the four D s=n-1 flips through rank 12 and E6 s=1: the
# bytes of the 72 files, concatenated in the order of their file names.
# Recorded before the orbit structure moved into the Heisenberg check.
CERTIFICATE_SET_CASES = (
    in_scope_cases(12)
    + [("D", n, n - 1) for n in range(6, 13, 2)]
    + [("E6", 6, 1)]
)
CERTIFICATE_SET_SHA256 = (
    "b6aea248c603c853b75d708139638473b73add927b1e7f1126ee3b755673b80b"
)


def _certificate_texts():
    """The 72 certificates, in the order of their file names."""
    files = {
        f"{family}_n{n}_s{s}.json": (family, n, s)
        for family, n, s in CERTIFICATE_SET_CASES
    }
    return [to_json(certificate_dict(run_case(*files[name]))) for name in sorted(files)]


@lru_cache(maxsize=None)
def _certificate_set_texts():
    return _certificate_texts()


def test_certificate_set_unchanged():
    assert len(CERTIFICATE_SET_CASES) == 72
    digest = hashlib.sha256()
    for text in _certificate_set_texts():
        digest.update(text.encode())
    assert digest.hexdigest() == CERTIFICATE_SET_SHA256


def _twisted(seed):
    return lambda system: WrappedTable(
        build_structure_table(system), sign_twist(system, seed)
    )


# The same 72 certificates under other sign conventions: the Jacobi table
# of extraspecial pairs, and the engine's models under two seeded twists
# X_g -> c(g) X_g with c(-g) = c(g).  The `chevalley` docstring proves that
# no check's outcome moves; this pins the bytes.
@pytest.mark.parametrize(
    "tables",
    [structure_table_oracle, _twisted(0), _twisted(1)],
    ids=["jacobi_oracle", "twist_seed_0", "twist_seed_1"],
)
def test_certificate_set_ignores_the_sign_convention(tables, monkeypatch):
    expected = _certificate_set_texts()
    monkeypatch.setattr(verify, "build_structure_table", tables)
    texts = _certificate_texts()
    changed = [i for i, (a, b) in enumerate(zip(texts, expected)) if a != b]
    assert len(texts) == 72 and changed == []


# One hash over the `report` text of the same 72 certificates, read back from
# their JSON: per file, the txt rendering and then the md one.  Recorded
# while the epsilon forms and the rationals were still rendered through
# fractions.Fraction.
REPORT_SET_SHA256 = (
    "899338b5c908b73aee1a326ce2d48becf1b4697ecd1fd3f014c0a09634ac0488"
)


def test_report_set_unchanged():
    digest = hashlib.sha256()
    for text in _certificate_set_texts():
        cert = json.loads(text)
        for fmt in ("txt", "md"):
            digest.update(render_certificate(cert, fmt).encode())
    assert digest.hexdigest() == REPORT_SET_SHA256


# Every certificate of the set satisfies 2 * sum(degrees) = dim p + |T|,
# read from its fields `degrees`, `checks.dim_p` and `T` alone: as |T| is
# the index of p, the degrees add up to (dim p + index p) / 2.  Unlike the
# closed-form checks of the engine, this identity needs no per-family table.
def _degree_sum_holds(cert):
    degrees = sum(Fraction(d["num"], d["den"]) for d in cert["degrees"])
    return 2 * degrees == cert["checks"]["dim_p"] + len(cert["T"])


def test_degree_sum_is_half_of_dim_p_plus_index():
    certs = [json.loads(text) for text in _certificate_set_texts()]
    assert len(certs) == 72
    for cert in certs:
        assert _degree_sum_holds(cert), cert["case"]


def _drop_one_t_root(cert):
    cert["T"].pop()


def _add_one_to_a_degree(cert):
    cert["degrees"][0]["num"] += cert["degrees"][0]["den"]


@pytest.mark.parametrize("corrupt", [_drop_one_t_root, _add_one_to_a_degree])
def test_degree_sum_breaks_under_corruption(corrupt):
    for text in _certificate_set_texts():
        cert = json.loads(text)
        corrupt(cert)
        assert not _degree_sum_holds(cert), cert["case"]
