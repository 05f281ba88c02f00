"""DNS helpers for the tests: a local fake DNS server answering A/AAAA questions
from a record table, and the whole-file index of a DNS fixture that replay is
held to."""

import ipaddress
import socket
import struct
import threading

from rpkiaudit.dns_resolution import fixture_result


def whole_file_answers(text, diag):
    """Each fixture name's answers by resolver label, from every line of the text at once.

    The whole-file reference for ``replay_in_turn``: ``fixture_result`` parses and
    counts each line, and a repeated (name, resolver) keeps the later line's answer.
    """
    answers = {}
    for line in text.split("\n"):
        result = fixture_result(line, diag)
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
