"""Cartographic object extraction from paired satellite rasters.

The pipeline segments a candidate region on the low-resolution
multispectral image, places it on the high-resolution panchromatic image
by exhaustive offset search over edge counts, refines the shape with a
marker-controlled watershed whose relief carries the detected edges, and
finally summarizes extracted shapes as attributed relational graphs with
common-subgraph/supergraph models.
"""
