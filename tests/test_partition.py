"""Unit tests for the Partition data model and validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import Graph, standard_weights
from repro.partition import Partition
from repro.partition.validation import (
    validate_epsilon,
    validate_num_parts,
    validate_partition,
    validate_weights,
)


class TestPartitionConstruction:
    def test_basic(self, triangle_graph):
        partition = Partition(graph=triangle_graph, assignment=np.array([0, 0, 1]), num_parts=2)
        assert partition.num_parts == 2

    def test_wrong_length_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            Partition(graph=triangle_graph, assignment=np.array([0, 1]), num_parts=2)

    def test_out_of_range_part_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            Partition(graph=triangle_graph, assignment=np.array([0, 1, 2]), num_parts=2)

    def test_negative_part_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            Partition(graph=triangle_graph, assignment=np.array([0, -1, 1]), num_parts=2)

    def test_zero_parts_rejected(self, triangle_graph):
        with pytest.raises(ValueError):
            Partition(graph=triangle_graph, assignment=np.zeros(3, dtype=int), num_parts=0)

    def test_trivial(self, path_graph):
        partition = Partition.trivial(path_graph)
        assert partition.num_parts == 1
        assert np.all(partition.assignment == 0)

    def test_empty_parts_allowed(self, triangle_graph):
        partition = Partition(graph=triangle_graph, assignment=np.zeros(3, dtype=int),
                              num_parts=4)
        assert np.array_equal(partition.part_sizes(), [3, 0, 0, 0])


class TestFromSides:
    def test_plus_minus_one(self, path_graph):
        sides = np.array([1, 1, 1, -1, -1, -1])
        partition = Partition.from_sides(path_graph, sides)
        assert np.array_equal(partition.assignment, [0, 0, 0, 1, 1, 1])

    def test_zero_one(self, path_graph):
        sides = np.array([0, 0, 1, 1, 0, 1])
        partition = Partition.from_sides(path_graph, sides)
        assert np.array_equal(partition.assignment, sides)

    def test_invalid_values_rejected(self, path_graph):
        with pytest.raises(ValueError):
            Partition.from_sides(path_graph, np.array([2, 0, 0, 0, 0, 0]))

    def test_wrong_length_rejected(self, path_graph):
        with pytest.raises(ValueError):
            Partition.from_sides(path_graph, np.array([1, -1]))


class TestViews:
    def test_parts(self, path_graph):
        partition = Partition(graph=path_graph, assignment=np.array([0, 0, 1, 1, 2, 2]),
                              num_parts=3)
        parts = partition.parts()
        assert len(parts) == 3
        assert np.array_equal(parts[1], [2, 3])

    def test_part_sizes(self, path_graph):
        partition = Partition(graph=path_graph, assignment=np.array([0, 0, 0, 1, 1, 1]),
                              num_parts=2)
        assert np.array_equal(partition.part_sizes(), [3, 3])

    def test_part_weights_single_dimension(self, path_graph):
        partition = Partition(graph=path_graph, assignment=np.array([0, 0, 0, 1, 1, 1]),
                              num_parts=2)
        weights = np.arange(1.0, 7.0)
        assert np.array_equal(partition.part_weights(weights), [6.0, 15.0])

    def test_part_weights_matrix(self, path_graph):
        partition = Partition(graph=path_graph, assignment=np.array([0, 1, 0, 1, 0, 1]),
                              num_parts=2)
        weights = standard_weights(path_graph, 2)
        totals = partition.part_weights(weights)
        assert totals.shape == (2, 2)
        assert np.isclose(totals.sum(), weights.sum())

    def test_part_weights_wrong_shape(self, path_graph):
        partition = Partition.trivial(path_graph)
        with pytest.raises(ValueError):
            partition.part_weights(np.ones(3))

    def test_side_vector(self, path_graph):
        partition = Partition(graph=path_graph, assignment=np.array([0, 1, 0, 1, 0, 1]),
                              num_parts=2)
        sides = partition.side_vector()
        assert np.array_equal(sides, [1, -1, 1, -1, 1, -1])

    def test_side_vector_requires_two_parts(self, path_graph):
        partition = Partition.trivial(path_graph)
        with pytest.raises(ValueError):
            partition.side_vector()

    def test_relabel(self, path_graph):
        partition = Partition(graph=path_graph, assignment=np.array([0, 0, 1, 1, 2, 2]),
                              num_parts=3)
        relabelled = partition.relabel([2, 0, 1], num_parts=3)
        assert np.array_equal(relabelled.assignment, [2, 2, 0, 0, 1, 1])

    def test_relabel_wrong_mapping_length(self, path_graph):
        partition = Partition.trivial(path_graph)
        with pytest.raises(ValueError):
            partition.relabel([0, 1], num_parts=2)

    def test_equality(self, path_graph):
        a = Partition(graph=path_graph, assignment=np.array([0, 0, 0, 1, 1, 1]), num_parts=2)
        b = Partition(graph=path_graph, assignment=np.array([0, 0, 0, 1, 1, 1]), num_parts=2)
        c = Partition(graph=path_graph, assignment=np.array([1, 0, 0, 1, 1, 1]), num_parts=2)
        assert a == b
        assert a != c

    def test_equality_across_equal_graphs(self, path_graph):
        copy = Graph.from_edges(path_graph.num_vertices, path_graph.edges[::-1])
        assert copy is not path_graph
        assignment = np.array([0, 0, 0, 1, 1, 1])
        a = Partition(graph=path_graph, assignment=assignment, num_parts=2)
        assert a == Partition(graph=copy, assignment=assignment, num_parts=2)
        other = Graph.from_edges(path_graph.num_vertices, [(0, 5)])
        assert a != Partition(graph=other, assignment=assignment, num_parts=2)


class TestValidationHelpers:
    def test_validate_weights_promotes_vector(self, triangle_graph):
        matrix = validate_weights(triangle_graph, np.ones(3))
        assert matrix.shape == (1, 3)

    def test_validate_weights_rejects_nonpositive(self, triangle_graph):
        with pytest.raises(ValueError):
            validate_weights(triangle_graph, np.array([1.0, 0.0, 1.0]))

    def test_validate_weights_rejects_nan(self, triangle_graph):
        with pytest.raises(ValueError):
            validate_weights(triangle_graph, np.array([1.0, np.nan, 1.0]))

    def test_validate_weights_rejects_wrong_length(self, triangle_graph):
        with pytest.raises(ValueError):
            validate_weights(triangle_graph, np.ones(5))

    def test_validate_epsilon(self):
        assert validate_epsilon(0.05) == 0.05
        with pytest.raises(ValueError):
            validate_epsilon(0.0)
        with pytest.raises(ValueError):
            validate_epsilon(1.5)

    def test_validate_num_parts(self):
        assert validate_num_parts(4, 100) == 4
        with pytest.raises(ValueError):
            validate_num_parts(0, 100)
        with pytest.raises(ValueError):
            validate_num_parts(200, 100)

    def test_validate_partition_passes_through(self, triangle_graph):
        partition = Partition.trivial(triangle_graph)
        assert validate_partition(partition) is partition
