"""Minimal wire-format DNS client: A/AAAA queries over UDP with TCP fallback.

Only what live resolution needs — recursion-desired questions, answer
section parsing with name compression, and the A/AAAA/CNAME record types.
"""

from __future__ import annotations

import secrets
import socket
import struct

QTYPE_A = 1
QTYPE_CNAME = 5
QTYPE_AAAA = 28

RCODE_NOERROR = 0
RCODE_SERVFAIL = 2
RCODE_NXDOMAIN = 3

_FLAG_RD = 0x0100
_FLAG_TC = 0x0200

_MAX_POINTER_HOPS = 64


class WireError(Exception):
    pass


def _encode_name(name: str) -> bytes:
    out = bytearray()
    for label in name.rstrip(".").split("."):
        raw = label.encode("ascii")
        if not 1 <= len(raw) <= 63:
            raise WireError(f"bad label in {name!r}")
        out.append(len(raw))
        out += raw
    out.append(0)
    return bytes(out)


def build_query(qid: int, name: str, qtype: int) -> bytes:
    header = struct.pack(">HHHHHH", qid, _FLAG_RD, 1, 0, 0, 0)
    return header + _encode_name(name) + struct.pack(">HH", qtype, 1)


def _read_name(data: bytes, off: int) -> tuple[str, int]:
    labels: list[str] = []
    jumps = 0
    end = -1
    while True:
        if off >= len(data):
            raise WireError("truncated name")
        length = data[off]
        if length & 0xC0 == 0xC0:  # compression pointer
            if off + 1 >= len(data):
                raise WireError("truncated pointer")
            if end < 0:
                end = off + 2
            off = ((length & 0x3F) << 8) | data[off + 1]
            jumps += 1
            if jumps > _MAX_POINTER_HOPS:
                raise WireError("pointer loop")
            continue
        off += 1
        if length == 0:
            break
        if off + length > len(data):
            raise WireError("truncated label")
        labels.append(data[off : off + length].decode("ascii", "replace"))
        off += length
    return ".".join(labels).lower(), (end if end >= 0 else off)


def parse_answers(data: bytes) -> tuple[int, bool, list[tuple[str, int, object]]]:
    """Return (rcode, truncated, [(owner, rtype, value), ...]) for a response.

    An A or AAAA value is the address as (version, int), a CNAME value the target name.
    """
    if len(data) < 12:
        raise WireError("short message")
    _qid, flags, qdcount, ancount, _ns, _ar = struct.unpack(">HHHHHH", data[:12])
    rcode = flags & 0xF
    truncated = bool(flags & _FLAG_TC)
    off = 12
    for _ in range(qdcount):
        _name, off = _read_name(data, off)
        off += 4  # qtype + qclass
    answers: list[tuple[str, int, object]] = []
    for _ in range(ancount):
        owner, off = _read_name(data, off)
        if off + 10 > len(data):
            raise WireError("truncated answer")
        rtype, _rclass, _ttl, rdlen = struct.unpack(">HHIH", data[off : off + 10])
        off += 10
        rdata = data[off : off + rdlen]
        if len(rdata) < rdlen:
            raise WireError("truncated rdata")
        if rtype == QTYPE_A and rdlen == 4:
            answers.append((owner, rtype, (4, int.from_bytes(rdata, "big"))))
        elif rtype == QTYPE_AAAA and rdlen == 16:
            answers.append((owner, rtype, (6, int.from_bytes(rdata, "big"))))
        elif rtype == QTYPE_CNAME:
            target, _ = _read_name(data, off)
            answers.append((owner, rtype, target))
        off += rdlen
    return rcode, truncated, answers


def query(
    server_ip: str, port: int, name: str, qtype: int, timeout: float
) -> tuple[int, list[tuple[str, int, object]]]:
    """One question over UDP, retried over TCP when the answer is truncated."""
    qid = secrets.randbelow(0x10000)
    message = build_query(qid, name, qtype)
    family = socket.AF_INET6 if ":" in server_ip else socket.AF_INET
    with socket.socket(family, socket.SOCK_DGRAM) as sock:
        sock.settimeout(timeout)
        sock.sendto(message, (server_ip, port))
        data, _addr = sock.recvfrom(4096)
    if len(data) >= 2 and struct.unpack(">H", data[:2])[0] != qid:
        raise WireError("response id mismatch")
    rcode, truncated, answers = parse_answers(data)
    if not truncated:
        return rcode, answers
    with socket.socket(family, socket.SOCK_STREAM) as sock:
        sock.settimeout(timeout)
        sock.connect((server_ip, port))
        sock.sendall(struct.pack(">H", len(message)) + message)
        size_raw = _recv_exact(sock, 2)
        data = _recv_exact(sock, struct.unpack(">H", size_raw)[0])
    rcode, _tc, answers = parse_answers(data)
    return rcode, answers


def _recv_exact(sock: socket.socket, size: int) -> bytes:
    chunks = b""
    while len(chunks) < size:
        part = sock.recv(size - len(chunks))
        if not part:
            raise WireError("connection closed mid-message")
        chunks += part
    return chunks
