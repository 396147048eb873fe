"""Tests for the Public Suffix List engine."""

import pytest

from repro.dnswire.psl import PublicSuffixList, default_psl


@pytest.fixture(scope="module")
def psl():
    return PublicSuffixList.builtin()


class TestEffectiveTld:
    def test_plain_gtld(self, psl):
        assert psl.effective_tld("example.com") == "com"

    def test_multi_label_suffix(self, psl):
        assert psl.effective_tld("bbc.co.uk") == "co.uk"
        assert psl.effective_tld("www.bbc.co.uk") == "co.uk"

    def test_paper_whitelist_cases(self, psl):
        # Table 3 discussion: .uk hosts .co.uk, .il hosts .org.il,
        # .me hosts .net.me.
        assert psl.effective_tld("something.org.il") == "org.il"
        assert psl.effective_tld("something.net.me") == "net.me"

    def test_name_that_is_a_suffix(self, psl):
        assert psl.effective_tld("co.uk") == "co.uk"
        assert psl.effective_tld("com") == "com"

    def test_unknown_tld_default_rule(self, psl):
        assert psl.effective_tld("example.zz") == "zz"

    def test_wildcard_rule(self, psl):
        # *.ck: any direct child of ck is itself a public suffix.
        assert psl.effective_tld("foo.example.ck") == "example.ck"

    def test_exception_rule(self, psl):
        # !www.ck: www.ck is registrable despite the wildcard.
        assert psl.effective_tld("www.ck") == "ck"
        assert psl.effective_sld("www.ck") == "www.ck"

    def test_root_returns_none(self, psl):
        assert psl.effective_tld("") is None


class TestEffectiveSld:
    def test_simple(self, psl):
        assert psl.effective_sld("www.example.com") == "example.com"
        assert psl.effective_sld("example.com") == "example.com"

    def test_multi_label_suffix(self, psl):
        assert psl.effective_sld("www.bbc.co.uk") == "bbc.co.uk"

    def test_deep_name(self, psl):
        assert psl.effective_sld("a.b.c.d.example.org") == "example.org"

    def test_suffix_itself_has_no_sld(self, psl):
        assert psl.effective_sld("co.uk") is None
        assert psl.effective_sld("com") is None

    def test_unknown_tld(self, psl):
        assert psl.effective_sld("foo.bar.zz") == "bar.zz"


class TestMisc:
    def test_len_counts_rules(self, psl):
        assert len(psl._exact) > 50

    def test_comments_and_blanks_ignored(self):
        custom = PublicSuffixList(["// comment", "", "com  ", "co.uk"])
        assert custom._exact == {"com", "co.uk"}

    def test_from_lines(self):
        custom = PublicSuffixList(["dev", "pages.dev"])
        assert custom.effective_tld("foo.pages.dev") == "pages.dev"

    def test_default_psl_is_cached(self):
        assert default_psl() is default_psl()

    def test_case_insensitive(self, psl):
        assert psl.effective_sld("WWW.Example.COM") == "example.com"
