"""The printed digests of ``tools/series_digest.py`` are the contract
across machines: every results row (without ``sec_per_step``) and trace
CSV of the factorial, wide and variants families at both seeds.  The
variants family shares one wiring across weights and lags, so a derived
result stored under too coarse a key changes its digest.  The raw
digests of the factorial and variants families hold for one BLAS kernel
only and stay in the script.  The wide runs call no BLAS, so their raw
digest holds under the Prescott kernel too and is pinned here: it
catches a change to the raw bits of the edge-list step, the tail or the
exchange that the printed digests round away."""

import functools
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "series_digest.py"

PRINTED = {
    "factorial": "4f728f1b202ba5dffe3fceed60a1bd2c569d273cc84eb66ab2f843faa4ca073f",
    "wide": "538d041ea36bc4b339ca190f7d954222ad626b1a425f0fae7144d2eb25faab0c",
    "variants": "b8a3f067d6b4611da3378ee268c77e26afd5201c059ffbd97a025c10bd103e5c",
}
WIDE_RAW = "6f00a3a5326f3734717b6d2659dc773c1e4bea7e7200c3c2bf9da97132669843"


_spec = importlib.util.spec_from_file_location("series_digest", SCRIPT)
series_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(series_digest)


@functools.cache
def family_digests(family):
    """The raw and printed digests of ``family``, computed once."""
    raw, printed, _ = series_digest.digests(*series_digest.FAMILIES[family])
    return raw, printed


@pytest.mark.parametrize("family", sorted(PRINTED))
def test_printed_digest_is_unchanged(family):
    assert family_digests(family)[1] == PRINTED[family]


def test_wide_raw_digest_is_unchanged():
    assert family_digests("wide")[0] == WIDE_RAW
