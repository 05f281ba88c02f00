"""rpkiaudit: measure RPKI route-origin protection of ranked website lists.

The pipeline resolves each domain (and its www variant) to addresses,
maps addresses to covering BGP prefixes and origin ASes, validates each
prefix-origin pair against ROA payloads, labels CDN usage, and aggregates
coverage by popularity rank.

The package re-exports nothing: import names from its modules, for example
``from rpkiaudit.rib_store import covering_pairs``.
"""
