"""Tests for repro.core.quartet: the quartet record."""

from repro.core.quartet import Quartet
from repro.net.geo import Region


class TestQuartetRecord:
    def test_namedtuple_fields(self):
        quartet = Quartet(
            time=3,
            prefix24=9,
            location_id="edge-X",
            mobile=True,
            mean_rtt_ms=55.0,
            n_samples=12,
            users=40,
            client_asn=65001,
            middle=(10,),
            region=Region.EUROPE,
        )
        assert quartet.time == 3
        assert quartet.mobile is True
        replaced = quartet._replace(middle=(11,))
        assert replaced.middle == (11,)
        assert quartet.middle == (10,)
