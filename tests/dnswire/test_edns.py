"""Tests for EDNS0 OPT handling."""

from repro.dnswire.constants import EDNS_DO, QTYPE
from repro.dnswire.edns import make_opt
from repro.dnswire.message import Message


def test_make_and_parse_opt():
    msg = Message.make_query("example.com", QTYPE.A)
    msg.additional.append(make_opt(payload_size=4096, dnssec_ok=True,
                                   version=0))
    opt = Message.from_wire(msg.to_wire()).opt_record()
    assert opt.rclass == 4096  # payload size
    assert opt.ttl & EDNS_DO
    assert (opt.ttl >> 16) & 0xFF == 0  # version
    assert (opt.ttl >> 24) & 0xFF == 0  # extended RCODE


def test_do_flag_off_by_default():
    opt = make_opt()
    assert not opt.ttl & EDNS_DO
    assert opt.rclass == 1232


def test_ext_rcode_packing():
    assert (make_opt(ext_rcode=0x16).ttl >> 24) & 0xFF == 0x16


def test_edns_info_from_message():
    msg = Message.make_query("example.com", QTYPE.A)
    assert msg.opt_record() is None
    msg.additional.append(make_opt(dnssec_ok=True))
    assert msg.opt_record().ttl & EDNS_DO


def test_opt_name_is_root():
    assert make_opt().name == ""


def test_repr():
    assert repr(make_opt()) == "RR('', OPT, ttl=0, OPT(options=b''))"
