"""Orbital mechanics: Walker constellations, propagation, visibility, passes."""
