"""The printed digests of ``tools/series_digest.py`` are the contract
across machines: every results row (without ``sec_per_step``) and trace
CSV of the factorial, wide and variants families at both seeds.  The
variants family shares one wiring across weights and lags, so a derived
result stored under too coarse a key changes its digest.  The raw
digests hold for one BLAS kernel only and stay in the script."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "series_digest.py"

PRINTED = {
    "factorial": "4f728f1b202ba5dffe3fceed60a1bd2c569d273cc84eb66ab2f843faa4ca073f",
    "wide": "538d041ea36bc4b339ca190f7d954222ad626b1a425f0fae7144d2eb25faab0c",
    "variants": "b8a3f067d6b4611da3378ee268c77e26afd5201c059ffbd97a025c10bd103e5c",
}


_spec = importlib.util.spec_from_file_location("series_digest", SCRIPT)
series_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(series_digest)


@pytest.mark.parametrize("family", sorted(PRINTED))
def test_printed_digest_is_unchanged(family):
    _, printed, _ = series_digest.digests(*series_digest.FAMILIES[family])
    assert printed == PRINTED[family]
