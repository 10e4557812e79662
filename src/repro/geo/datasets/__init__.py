"""Embedded location gazetteer.

The paper's measurements depend on *where infrastructure is*: Starlink's 22
PoPs and ~150 ground stations are concentrated in North America, Europe,
parts of South America and Oceania, with almost nothing in southern/eastern
Africa — while CDN providers such as Cloudflare have sites in most capital
cities worldwide. This package embeds a faithful (publicly documented)
approximation of that footprint so the simulation reproduces the structural
pathologies (e.g. Maputo traffic exiting at Frankfurt).
"""
