"""Geodesy: coordinates, distances, and the embedded location gazetteer."""
