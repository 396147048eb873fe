"""Tests for AS name registry and organization extraction."""

from repro.netsim.asnames import AsNameRegistry, extract_org


class TestExtractOrg:
    def test_table1_style_names(self):
        assert extract_org("AMAZON-02 - Amazon.com, Inc., US") == "AMAZON"
        assert extract_org("AMAZON-AES - Amazon.com, Inc., US") == "AMAZON"
        assert extract_org("CLOUDFLARENET - Cloudflare, Inc., US") == "CLOUDFLARE"
        assert extract_org("GOOGLE - Google LLC, US") == "GOOGLE"
        assert extract_org("MICROSOFT-CORP-MSN-AS-BLOCK, US") == "MICROSOFT"
        assert extract_org("AKAMAI-ASN1, EU") == "AKAMAI"

    def test_short_names_not_truncated(self):
        assert extract_org("PCH-AS - Packet Clearing House, US") == "PCH"

    def test_empty_name(self):
        assert extract_org("") == "UNKNOWN"
        assert extract_org(None) == "UNKNOWN"

    def test_same_org_many_ases(self):
        names = [
            "VERISIGN-AS1 - VeriSign Infrastructure",
            "VERISIGN-AS2 - VeriSign Infrastructure",
            "VERISIGN-AS7 - VeriSign Global Registry",
        ]
        orgs = {extract_org(n) for n in names}
        assert orgs == {"VERISIGN"}


class TestRegistry:
    def make(self):
        reg = AsNameRegistry()
        reg.add(16509, "AMAZON-02 - Amazon.com, Inc., US")
        reg.add(14618, "AMAZON-AES - Amazon.com, Inc., US")
        reg.add(13335, "CLOUDFLARENET - Cloudflare, Inc., US")
        return reg

    def test_org_lookup(self):
        reg = self.make()
        assert reg.org(16509) == "AMAZON"
        assert reg.org(13335) == "CLOUDFLARE"
        assert reg.org(99999) == "AS99999"
        assert reg.org(None) == "UNKNOWN"

    def test_from_tsv(self):
        reg = AsNameRegistry.from_tsv([
            "# comment",
            "65001\tEXAMPLE-NET - Example Networks",
            "",
        ])
        assert reg.org(65001) == "EXAMPLE"
