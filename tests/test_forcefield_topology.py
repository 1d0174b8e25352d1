"""The compiled force field must reproduce the scalar reference bit for bit.

``ForceFieldTopology`` (the production path) is compared with the scalar
``ForceField._compute`` loop using ``np.array_equal`` / ``==`` — no
tolerances — and ``minimize_conformer`` with a minimizer that drives the
scalar loop through ``Atom`` positions, the way the descent ran before
the topology was compiled.  The inputs include raw ``embed_3d``
conformers, where the bond term's ``pow`` rounding shows: the streamed
``chembl`` library at seed 1 and ``enamine`` at seeds 0 and 4 (40
compounds each) contain bond stretches whose square differs in the last
ulp between ``pow`` and ``square``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.chem.atom import Atom
from repro.chem.conformer import embed_3d, minimize_conformer
from repro.chem.forcefield import ForceField, ForceFieldTopology
from repro.chem.molecule import Bond, Molecule
from repro.chem.prep import LigandPrepPipeline
from repro.datasets.libraries import LIBRARY_PROFILES, make_streaming_library

SEEDS = (0, 1, 4)
LIBRARY_SIZE = 40


def reference_minimize(molecule, forcefield, max_steps=50, step_size=0.02, tolerance=1e-3):
    """Steepest descent on the scalar force field, round-tripping ``Atom`` positions."""
    out = molecule.copy()
    coords = out.coordinates
    energy_parts, forces = forcefield._compute(out, want_forces=True)
    energy = energy_parts.total
    step = float(step_size)
    for _ in range(int(max_steps)):
        grad_norm = np.linalg.norm(forces)
        if grad_norm < tolerance:
            break
        trial = coords + step * forces / (grad_norm + 1e-12)
        out.set_coordinates(trial)
        new_parts, new_forces = forcefield._compute(out, want_forces=True)
        if new_parts.total < energy:
            coords, energy, forces = trial, new_parts.total, new_forces
            step *= 1.1
        else:
            out.set_coordinates(coords)
            step *= 0.5
            if step < 1e-5:
                break
    out.set_coordinates(coords)
    return out, float(energy)


@pytest.fixture(scope="module")
def library_molecules():
    """Raw embedded conformers from every library profile, plus their protonated forms."""
    molecules = []
    for name in sorted(LIBRARY_PROFILES):
        for seed in SEEDS:
            for molecule in make_streaming_library(name, size=LIBRARY_SIZE, seed=seed).generate_range(0, LIBRARY_SIZE):
                molecules.append((f"{name}/{seed}/{molecule.name}", molecule))
                molecules.append((f"{name}/{seed}/{molecule.name}+H", LigandPrepPipeline.protonate(molecule)))
    return molecules


def assert_same_evaluation(forcefield, molecule, label=""):
    reference, reference_forces = forcefield._compute(molecule, want_forces=True)
    topology = ForceFieldTopology(forcefield, molecule)
    energy, forces = topology.evaluate(molecule.coordinates, want_forces=True)
    assert energy.bond == reference.bond, label
    assert energy.vdw == reference.vdw, label
    assert energy.electrostatic == reference.electrostatic, label
    assert forces.shape == reference_forces.shape == (molecule.num_atoms, 3), label
    assert np.array_equal(forces, reference_forces), label
    total, forces_again = topology.energy_and_forces(molecule.coordinates)
    assert total == reference.total and np.array_equal(forces_again, reference_forces), label
    components, no_forces = topology.evaluate(molecule.coordinates, want_forces=False)
    assert components == reference and no_forces is None, label


def test_topology_matches_scalar_reference_on_every_library(library_molecules):
    forcefield = ForceField()
    for label, molecule in library_molecules:
        assert_same_evaluation(forcefield, molecule, label)


def test_forcefield_public_api_routes_through_topology(library_molecules):
    forcefield = ForceField()
    for label, molecule in library_molecules[::7]:
        reference, reference_forces = forcefield._compute(molecule, want_forces=True)
        assert forcefield.energy_components(molecule) == reference, label
        total, forces = forcefield.energy_and_forces(molecule)
        assert total == reference.total and np.array_equal(forces, reference_forces), label


def test_minimize_matches_scalar_reference_minimizer(library_molecules):
    forcefield = ForceField()
    for label, molecule in library_molecules[::6]:
        before = molecule.coordinates
        relaxed, energy = minimize_conformer(molecule, forcefield, max_steps=25)
        expected, expected_energy = reference_minimize(molecule, forcefield, max_steps=25)
        assert energy == expected_energy, label
        assert np.array_equal(relaxed.coordinates, expected.coordinates), label
        assert np.array_equal(molecule.coordinates, before), label  # the input is never moved


def test_topology_is_compiled_once_and_reused_across_conformers():
    forcefield = ForceField()
    molecule = embed_3d(
        Molecule([Atom("C"), Atom("N"), Atom("C"), Atom("O"), Atom("C")], [Bond(0, 1), Bond(1, 2), Bond(2, 3), Bond(3, 4)]),
        rng=7,
    )
    molecule.assign_partial_charges()
    topology = ForceFieldTopology(forcefield, molecule)
    rng = np.random.default_rng(0)
    for _ in range(20):
        coords = molecule.coordinates + rng.normal(scale=0.3, size=(molecule.num_atoms, 3))
        molecule.set_coordinates(coords)
        reference, reference_forces = forcefield._compute(molecule, want_forces=True)
        total, forces = topology.energy_and_forces(coords)
        assert total == reference.total and np.array_equal(forces, reference_forces)


def test_topology_pairs_exclude_bonds_in_triu_order():
    molecule = Molecule([Atom("C") for _ in range(4)], [Bond(2, 1), Bond(0, 3)])
    topology = ForceFieldTopology(ForceField(), molecule)
    assert list(zip(topology.iu, topology.ju)) == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert topology.bond_i.tolist() == [2, 0] and topology.bond_j.tolist() == [1, 3]


@pytest.mark.parametrize(
    "atoms, bonds",
    [
        ([], []),
        ([Atom("C", position=[0.3, -0.2, 1.0])], []),
        ([Atom("C"), Atom("O", position=[1.2, 0.1, 0.0])], [Bond(0, 1)]),
        ([Atom("C"), Atom("N", position=[1.6, 0.0, 0.0])], [Bond(1, 0, 2)]),
        # two disconnected fragments: a chain and a counter-ion
        (
            [Atom("C"), Atom("C", position=[1.4, 0, 0]), Atom("O", position=[2.1, 1.1, 0]), Atom("Na", position=[5.0, 0, 0])],
            [Bond(0, 1), Bond(1, 2)],
        ),
    ],
    ids=["empty", "one-atom", "two-bonded", "two-bonded-reversed", "disconnected"],
)
def test_edge_cases_match_scalar_reference_and_minimize(atoms, bonds):
    forcefield = ForceField()
    molecule = Molecule(atoms, bonds)
    molecule.assign_partial_charges()
    assert_same_evaluation(forcefield, molecule)
    relaxed, energy = minimize_conformer(molecule, forcefield)
    expected, expected_energy = reference_minimize(molecule, forcefield)
    assert energy == expected_energy
    assert relaxed.coordinates.shape == (molecule.num_atoms, 3)
    assert np.array_equal(relaxed.coordinates, expected.coordinates)
    if molecule.num_atoms <= 1:  # nothing to relax
        assert energy == 0.0 and np.array_equal(relaxed.coordinates, molecule.coordinates)
