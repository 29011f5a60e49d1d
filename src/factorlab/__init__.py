"""factorlab: factor congruences, central elements and first-coordinate
definability in finitely generated varieties, at desk scale."""
