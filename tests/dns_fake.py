"""DNS helpers for the tests: a local fake DNS server answering A/AAAA questions
from a record table, the whole-file index of a DNS fixture that replay is held
to, and the plain fixture line parser that ``fixture_result`` is held to."""

import ipaddress
import json
import socket
import struct
import threading

from rpkiaudit._prefix_index import parse_address
from rpkiaudit.dns_resolution import ResolutionResult
from rpkiaudit.domain_ingest import normalize_name
from rpkiaudit.vocabulary import ResolutionStatus


def reference_fixture_result(line, diag):
    """``fixture_result`` written plainly: ``json.loads`` and the status enum's own lookup."""
    line = line.strip()
    if not line:
        return None
    try:
        obj = json.loads(line)
        if type(obj) is not dict:
            raise TypeError("line is not an object")
        domain = obj.get("domain")
        resolver = obj.get("resolver", "fixture")
        status = obj.get("status", "ok")
        chain, a, aaaa = obj.get("cnames", []), obj.get("a", []), obj.get("aaaa", [])
        ts = obj.get("ts", 0)
        if not type(domain) is type(resolver) is type(status) is str:
            raise TypeError("domain, resolver and status must be strings")
        if not type(chain) is type(a) is type(aaaa) is list:
            raise TypeError("cnames, a and aaaa must be arrays")
        domain = normalize_name(domain)
        if domain is None:
            raise ValueError(line)
        status = ResolutionStatus(status.lower())
        cnames = tuple(normalize_name(c) if type(c) is str else None for c in chain)
        if None in cnames:
            raise ValueError(line)
        addresses = frozenset(map(parse_address, a + aaaa))
        if type(ts) is not int:
            raise TypeError(f"ts {ts!r} is not an integer")
    except (ValueError, TypeError, RecursionError):
        diag.count("malformed_fixture_lines")
        return None
    if status is not ResolutionStatus.OK:
        if addresses:
            diag.count("fixture_status_conflicts")
        addresses = frozenset()
    elif not addresses:
        status = ResolutionStatus.EMPTY
    return ResolutionResult(domain, resolver, cnames, addresses, status, ts)


def whole_file_answers(text, diag):
    """Each fixture name's answers by resolver label, from every line of the text at once.

    The whole-file reference for ``replay_in_turn``: ``reference_fixture_result``
    parses and counts each line, and a repeated (name, resolver) keeps the later
    line's answer.
    """
    answers = {}
    for line in text.split("\n"):
        result = reference_fixture_result(line, diag)
        if result is not None:
            answers.setdefault(result.domain, {})[result.resolver_id] = result
    return answers


def encode_name(name):
    out = b""
    for label in name.rstrip(".").split("."):
        out += bytes([len(label)]) + label.encode()
    return out + b"\x00"


class FakeDnsServer(threading.Thread):
    def __init__(self, zones, rcode=0):
        super().__init__(daemon=True)
        self.zones = zones  # name -> {"cname": target} | {"a": [...], "aaaa": [...]}
        self.rcode = rcode
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.port = self.sock.getsockname()[1]
        self._halt = threading.Event()

    def run(self):
        self.sock.settimeout(0.1)
        while not self._halt.is_set():
            try:
                query, addr = self.sock.recvfrom(512)
            except socket.timeout:
                continue
            self.sock.sendto(self._answer(query), addr)

    def stop(self):
        self._halt.set()
        self.join()
        self.sock.close()

    def _answer(self, query):
        qid = struct.unpack(">H", query[:2])[0]
        off = 12
        labels = []
        while query[off]:
            length = query[off]
            labels.append(query[off + 1 : off + 1 + length].decode())
            off += 1 + length
        qname = ".".join(labels)
        qtype = struct.unpack(">H", query[off + 1 : off + 3])[0]
        question = query[12 : off + 5]

        answers = b""
        count = 0
        cursor = qname
        while cursor in self.zones and "cname" in self.zones[cursor]:
            target = self.zones[cursor]["cname"]
            rdata = encode_name(target)
            answers += encode_name(cursor) + struct.pack(">HHIH", 5, 1, 60, len(rdata)) + rdata
            count += 1
            cursor = target
        record = self.zones.get(cursor, {})
        key = "a" if qtype == 1 else "aaaa"
        for text in record.get(key, []):
            packed = ipaddress.ip_address(text).packed
            answers += encode_name(cursor) + struct.pack(">HHIH", qtype, 1, 60, len(packed)) + packed
            count += 1
        flags = 0x8180 | self.rcode
        header = struct.pack(">HHHHHH", qid, flags, 1, count, 0, 0)
        return header + question + answers
