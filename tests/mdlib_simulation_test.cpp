#include "mdlib/simulation.hpp"

#include <gtest/gtest.h>

#include "mdlib/observables.hpp"
#include "mdlib/proteins.hpp"
#include "mdlib/pdb.hpp"
#include "mdlib/units.hpp"

#include <cstring>
#include <filesystem>
#include <span>

namespace cop::md {
namespace {

Simulation makeSim(std::uint64_t seed = 1, std::int64_t sampleInterval = 10) {
    const auto model = hairpinGoModel();
    SimulationConfig cfg;
    cfg.integrator.kind = IntegratorKind::LangevinBAOAB;
    cfg.integrator.temperature = 0.5;
    cfg.integrator.friction = 0.5;
    cfg.sampleInterval = sampleInterval;
    cfg.seed = seed;
    auto sim = Simulation::forGoModel(model, model.native, cfg);
    sim.initializeVelocities();
    return sim;
}

TEST(Simulation, RecordsFramesAtSampleInterval) {
    auto sim = makeSim(1, 10);
    sim.run(100);
    // Initial frame + one every 10 steps.
    EXPECT_EQ(sim.trajectory().numFrames(), 11u);
    EXPECT_EQ(sim.trajectory().frame(0).step, 0);
    EXPECT_EQ(sim.trajectory().frame(10).step, 100);
}

TEST(Simulation, RunsAcrossMultipleCalls) {
    auto sim = makeSim(2, 25);
    sim.run(50);
    sim.run(50);
    EXPECT_EQ(sim.state().step, 100);
    EXPECT_EQ(sim.trajectory().numFrames(), 5u); // 0,25,50,75,100
}

TEST(Simulation, CheckpointRestoreContinuesBitExact) {
    // The §2.3 guarantee: a command continued from a checkpoint on another
    // worker produces exactly the same trajectory.
    auto simA = makeSim(3, 10);
    simA.run(40);
    const auto blob = simA.checkpoint();
    simA.run(60);

    auto simB = Simulation::restore(blob);
    simB.run(60);

    ASSERT_EQ(simA.state().numParticles(), simB.state().numParticles());
    EXPECT_EQ(simA.state().step, simB.state().step);
    for (std::size_t i = 0; i < simA.state().numParticles(); ++i) {
        EXPECT_EQ(simA.state().positions[i], simB.state().positions[i]);
        EXPECT_EQ(simA.state().velocities[i], simB.state().velocities[i]);
    }
    EXPECT_EQ(simA.trajectory().numFrames(), simB.trajectory().numFrames());
}

std::uint64_t fnv1a(std::span<const std::uint8_t> bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const auto b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Simulation, GoldenCheckpointHashAcrossBuilds) {
    // A villin Go run at default settings. The expected size and hash were
    // recorded before the Blocked4 flavor and the barostat were deleted;
    // they pin the checkpoint format, the on-disk enum values
    // (KernelFlavor::Soa is written as 2) and the default trajectory. Any
    // change to any of them moves the hash.
    const auto model = villinGoModel();
    SimulationConfig cfg;
    cfg.seed = 3;
    auto sim = Simulation::forGoModel(model, model.native, cfg);
    sim.initializeVelocities();
    sim.run(200);
    const auto blob = sim.checkpoint();
    EXPECT_EQ(blob.size(), 13544u);
    EXPECT_EQ(fnv1a(blob), 0xbde2ac7ed5cea1cdull);
}

TEST(Simulation, RestoreRejectsUnknownEnumValues) {
    // Each enum field of a checkpoint, patched to a value no enumerator
    // names, must fail the restore rather than restore into a run that
    // integrates nothing or silently falls back to another kernel.
    // Flavor 1 belonged to a retired kernel and stays invalid.
    auto sim = makeSim(3, 10);
    sim.run(20);
    const auto blob = sim.checkpoint();
    BinaryWriter topology;
    sim.topology().serialize(topology);
    // Header (magic, version), topology, box (periodic flag, lengths).
    const std::size_t ff = 8 + topology.size() + 1 + 3 * sizeof(double);
    // Force-field block: kind, flavor, six doubles, two flags, two doubles.
    const std::size_t integrator = ff + 2 * 4 + 6 * 8 + 2 + 2 * 8;
    const std::size_t thermostat = integrator + 4 + 8; // after kind, dt
    const auto field = [&](std::size_t offset) {
        std::int32_t v = 0;
        std::memcpy(&v, blob.data() + offset, sizeof v);
        return v;
    };
    ASSERT_EQ(field(ff), std::int32_t(NonbondedKind::GoRepulsive));
    ASSERT_EQ(field(ff + 4), std::int32_t(KernelFlavor::Soa));
    ASSERT_EQ(field(integrator), std::int32_t(IntegratorKind::LangevinBAOAB));
    ASSERT_EQ(field(thermostat), std::int32_t(ThermostatKind::None));

    struct Patch {
        std::size_t offset;
        std::int32_t value;
    };
    for (const Patch p : {Patch{ff, 2}, Patch{ff, -1}, Patch{ff + 4, 1},
                          Patch{ff + 4, 9}, Patch{integrator, 7},
                          Patch{thermostat, 4}}) {
        SCOPED_TRACE("offset " + std::to_string(p.offset) + " value " +
                     std::to_string(p.value));
        auto bad = blob;
        std::memcpy(bad.data() + p.offset, &p.value, sizeof p.value);
        EXPECT_THROW(Simulation::restore(bad), cop::IoError);
    }
    EXPECT_NO_THROW(Simulation::restore(blob));
}

TEST(Simulation, CheckpointPreservesConfigAndTopology) {
    auto sim = makeSim(4, 7);
    sim.run(21);
    const auto blob = sim.checkpoint();
    auto restored = Simulation::restore(blob);
    EXPECT_EQ(restored.topology().numParticles(),
              sim.topology().numParticles());
    EXPECT_EQ(restored.state().step, 21);
    EXPECT_NEAR(restored.state().time, sim.state().time, 0.0);
}

TEST(Simulation, TakeTrajectoryLeavesEmpty) {
    auto sim = makeSim(5, 10);
    sim.run(30);
    auto traj = sim.takeTrajectory();
    EXPECT_EQ(traj.numFrames(), 4u);
    EXPECT_TRUE(sim.trajectory().empty());
    sim.run(10);
    // A fresh initial frame is recorded when the trajectory restarts.
    EXPECT_EQ(sim.trajectory().numFrames(), 2u);
}

TEST(Simulation, MinimizeReducesEnergy) {
    const auto model = hairpinGoModel();
    SimulationConfig cfg;
    cfg.seed = 6;
    cop::Rng rng(9);
    auto start = model.native;
    for (auto& p : start) p += rng.gaussianVec3(0.15);
    auto sim = Simulation::forGoModel(model, start, cfg);
    std::vector<Vec3> forces;
    ForceField ff(model.topology, Box::open(), model.forceFieldParams());
    const double e0 = ff.compute(start, forces).potential();
    const double e1 = sim.minimize(300);
    EXPECT_LT(e1, e0);
    // Should relax most of the way back to the native basin.
    EXPECT_LT(toAngstrom(rmsd(model.native, sim.state().positions)), 2.0);
}

TEST(Simulation, RejectsBadConfig) {
    const auto model = hairpinGoModel();
    SimulationConfig cfg;
    cfg.sampleInterval = 0;
    EXPECT_THROW(Simulation::forGoModel(model, model.native, cfg),
                 cop::InvalidArgument);
    SimulationConfig ok;
    EXPECT_THROW(
        Simulation(model.topology, Box::open(), model.forceFieldParams(),
                   ok, std::vector<Vec3>(3)),
        cop::InvalidArgument);
}

TEST(Trajectory, SubsampleAndExtend) {
    Trajectory t;
    for (int i = 0; i < 10; ++i)
        t.append(i, i * 0.1, std::vector<Vec3>{{double(i), 0, 0}});
    const auto sub = t.subsampled(3);
    EXPECT_EQ(sub.numFrames(), 4u); // 0,3,6,9
    EXPECT_EQ(sub.frame(1).step, 3);

    Trajectory more;
    more.append(10, 1.0, std::vector<Vec3>{{10, 0, 0}});
    t.extend(more);
    EXPECT_EQ(t.numFrames(), 11u);
    EXPECT_EQ(t.back().step, 10);
}

TEST(Trajectory, SerializationRoundTrip) {
    Trajectory t;
    t.append(5, 0.5, std::vector<Vec3>{{1, 2, 3}, {4, 5, 6}});
    cop::BinaryWriter w;
    t.serialize(w);
    cop::BinaryReader r(w.buffer());
    const auto t2 = Trajectory::deserialize(r);
    ASSERT_EQ(t2.numFrames(), 1u);
    EXPECT_EQ(t2.frame(0).step, 5);
    EXPECT_EQ(t2.frame(0).positions[1], Vec3(4, 5, 6));
}

TEST(Trajectory, RejectsInconsistentFrames) {
    Trajectory t;
    t.append(0, 0.0, std::vector<Vec3>{{1, 2, 3}});
    EXPECT_THROW(t.append(1, 0.1, std::vector<Vec3>{{1, 2, 3}, {4, 5, 6}}),
                 cop::InvalidArgument);
    EXPECT_THROW(t.append(Frame{}), cop::InvalidArgument);
}

TEST(State, SerializationRoundTrip) {
    State s;
    s.resize(2);
    s.positions = {{1, 2, 3}, {4, 5, 6}};
    s.velocities = {{0.1, 0.2, 0.3}, {0, 0, 0}};
    s.step = 42;
    s.time = 0.42;
    s.nhXi = 0.7;
    cop::BinaryWriter w;
    s.serialize(w);
    cop::BinaryReader r(w.buffer());
    EXPECT_EQ(State::deserialize(r), s);
}


TEST(Pdb, RendersAtomRecords) {
    const auto native = hairpinNativeStructure();
    const auto pdb = pdbString(native, "hairpin");
    EXPECT_NE(pdb.find("TITLE     hairpin"), std::string::npos);
    EXPECT_NE(pdb.find("ATOM      1  CA  ALA A   1"), std::string::npos);
    EXPECT_NE(pdb.find("END"), std::string::npos);
    // One ATOM line per residue.
    std::size_t atoms = 0, at = 0;
    while ((at = pdb.find("ATOM  ", at)) != std::string::npos) {
        ++atoms;
        at += 6;
    }
    EXPECT_EQ(atoms, native.size());
}

TEST(Pdb, MultiModelOutput) {
    const auto native = hairpinNativeStructure();
    const auto pdb =
        pdbString(std::vector<std::vector<Vec3>>{native, native}, "two");
    EXPECT_NE(pdb.find("MODEL        1"), std::string::npos);
    EXPECT_NE(pdb.find("MODEL        2"), std::string::npos);
    EXPECT_NE(pdb.find("ENDMDL"), std::string::npos);
}

TEST(Pdb, WritesFile) {
    const auto path =
        (std::filesystem::temp_directory_path() / "cop_test.pdb").string();
    writePdb(path, hairpinNativeStructure());
    const auto bytes = cop::readFile(path);
    EXPECT_GT(bytes.size(), 100u);
    std::filesystem::remove(path);
}

} // namespace
} // namespace cop::md
