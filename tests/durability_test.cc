#include <gtest/gtest.h>

#include <stdlib.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "data/datasets.h"
#include "durability/codec.h"
#include "durability/manager.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "obs/metrics.h"
#include "service/scenario_service.h"

namespace hyper::durability {
namespace {

// The recovery contract under test: a service rebuilt from WAL + snapshot
// must be BIT-IDENTICAL to the pre-crash one — same branch delta
// fingerprints, same what-if answers (==, not NEAR) — and any storage damage
// must either be provably harmless (torn tail of an unacknowledged append)
// or refuse service with a typed DataLoss instead of serving wrong state.

// --- filesystem helpers -----------------------------------------------------

/// Fresh directory under TMPDIR, removed (recursively) on destruction.
class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/hyper_durability_XXXXXX";
    const char* made = ::mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path_ = made;
  }
  ~TempDir() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    [[maybe_unused]] const int rc = std::system(cmd.c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good()) << path;
}

void FlipByteAt(const std::string& path, size_t offset) {
  std::string bytes = ReadFile(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0xFF);
  WriteFile(path, bytes);
}

// --- checksum ---------------------------------------------------------------

TEST(Crc32cTest, MatchesStandardCheckValue) {
  // The canonical CRC-32C check value — any table or polynomial slip fails
  // loudly here instead of as undiagnosable "corruption" at recovery time.
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, SeedChainsIncrementally) {
  const char buf[] = "hello, wal";
  const uint32_t whole = Crc32c(buf, sizeof(buf) - 1);
  const uint32_t first = Crc32c(buf, 5);
  EXPECT_EQ(Crc32c(buf + 5, sizeof(buf) - 1 - 5, first), whole);
  EXPECT_NE(whole, Crc32c(buf, sizeof(buf) - 2));
}

// --- codec ------------------------------------------------------------------

TEST(CodecTest, RoundTripsEveryValueTypeBitExactly) {
  const std::vector<Value> values = {
      Value::Null(),        Value::Bool(true),
      Value::Bool(false),   Value::Int(-7),
      Value::Int(1) ,       Value::Double(0.1),
      Value::Double(-0.0),  Value::Double(1e308),
      Value::String(""),
      Value::String(std::string("München \n\0 bytes", 17)),
  };
  ByteWriter w;
  w.U8(0xAB);
  w.U32(0xDEADBEEFu);
  w.U64(~0ULL);
  w.Str("payload");
  for (const Value& v : values) w.Val(v);
  const std::string bytes = w.Take();

  ByteReader r(bytes);
  EXPECT_EQ(r.U8().value(), 0xAB);
  EXPECT_EQ(r.U32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64().value(), ~0ULL);
  EXPECT_EQ(r.Str().value(), "payload");
  for (const Value& v : values) {
    auto back = r.Val();
    ASSERT_TRUE(back.ok()) << back.status();
    // Hash equality is the contract the fingerprint chain depends on.
    EXPECT_EQ(back.value().Hash(), v.Hash());
    EXPECT_EQ(back.value().type(), v.type());
  }
  EXPECT_TRUE(r.done());
}

TEST(CodecTest, TruncatedBufferIsTypedDataLoss) {
  ByteWriter w;
  w.Str("only half of this string survives");
  const std::string bytes = w.Take();
  ByteReader r(std::string_view(bytes).substr(0, bytes.size() / 2));
  auto s = r.Str();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.status().code(), StatusCode::kDataLoss);
}

// --- WAL framing & damage discrimination ------------------------------------

WalSegmentHeader TestHeader() {
  WalSegmentHeader header;
  header.base_fingerprint = 0x1234;
  header.generation = 1;
  return header;
}

TEST(WalTest, AppendsRoundTripInOrder) {
  TempDir dir;
  {
    WalWriter writer(dir.path(), {});
    ASSERT_TRUE(writer.Open(TestHeader(), 1).ok());
    uint64_t lsn = 0;
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          writer.Append(WalRecordType::kApply, "payload-" + std::to_string(i),
                        &lsn)
              .ok());
      EXPECT_EQ(lsn, static_cast<uint64_t>(i + 1));
    }
  }
  auto log = ReadLog(dir.path());
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log->records.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(log->records[i].lsn, i + 1);
    EXPECT_EQ(log->records[i].type, WalRecordType::kApply);
    EXPECT_EQ(log->records[i].payload, "payload-" + std::to_string(i));
  }
  EXPECT_EQ(log->first_header.base_fingerprint, 0x1234u);
  EXPECT_FALSE(log->tail_truncated);
  EXPECT_EQ(log->skipped, 0u);
}

TEST(WalTest, TornTailIsTruncatedAndWritableAgain) {
  TempDir dir;
  {
    WalWriter writer(dir.path(), {});
    ASSERT_TRUE(writer.Open(TestHeader(), 1).ok());
    uint64_t lsn = 0;
    ASSERT_TRUE(writer.Append(WalRecordType::kApply, "kept", &lsn).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kApply, "also kept", &lsn).ok());
  }
  // A crash mid-append leaves a partial frame: fewer bytes than a header.
  const std::string segment = dir.path() + "/" + WalSegmentName(1);
  WriteFile(segment, ReadFile(segment) + std::string("\x07\x13\x42", 3));

  auto log = ReadLog(dir.path());
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(log->records.size(), 2u);
  EXPECT_TRUE(log->tail_truncated);
  EXPECT_EQ(log->truncated_bytes, 3u);

  // The truncation is physical: the writer appends clean frames after it.
  {
    WalWriter writer(dir.path(), {});
    ASSERT_TRUE(writer.Open(TestHeader(), 3).ok());
    uint64_t lsn = 0;
    ASSERT_TRUE(writer.Append(WalRecordType::kApply, "post-crash", &lsn).ok());
    EXPECT_EQ(lsn, 3u);
  }
  log = ReadLog(dir.path());
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log->records.size(), 3u);
  EXPECT_EQ(log->records[2].payload, "post-crash");
  EXPECT_FALSE(log->tail_truncated);
}

TEST(WalTest, CorruptFinalFrameIsATornTail) {
  TempDir dir;
  {
    WalWriter writer(dir.path(), {});
    ASSERT_TRUE(writer.Open(TestHeader(), 1).ok());
    uint64_t lsn = 0;
    ASSERT_TRUE(writer.Append(WalRecordType::kApply, "kept", &lsn).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kApply, "damaged", &lsn).ok());
  }
  // Flip one payload byte of the LAST frame — nothing valid follows, so this
  // is indistinguishable from a crash mid-write and must be dropped, not
  // fatal (the append was never acknowledged durable).
  const std::string segment = dir.path() + "/" + WalSegmentName(1);
  FlipByteAt(segment, ReadFile(segment).size() - 2);

  auto log = ReadLog(dir.path());
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log->records.size(), 1u);
  EXPECT_EQ(log->records[0].payload, "kept");
  EXPECT_TRUE(log->tail_truncated);
}

TEST(WalTest, FlippedByteMidLogIsDataLossNamingTheOffset) {
  TempDir dir;
  size_t first_record_offset = 0;
  {
    WalWriter writer(dir.path(), {});
    ASSERT_TRUE(writer.Open(TestHeader(), 1).ok());
    first_record_offset = static_cast<size_t>(writer.current_segment_bytes());
    uint64_t lsn = 0;
    ASSERT_TRUE(writer.Append(WalRecordType::kApply, "damaged", &lsn).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kApply, "valid after", &lsn).ok());
  }
  // Damage an EARLY frame with a valid frame after it: silent bit rot, not a
  // torn append. Recovery must refuse rather than skip the hole.
  const std::string segment = dir.path() + "/" + WalSegmentName(1);
  FlipByteAt(segment, first_record_offset + kWalFrameHeaderBytes + 1);

  auto log = ReadLog(dir.path());
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kDataLoss);
  // The error names the damaged segment and the byte offset of the bad frame.
  EXPECT_NE(log.status().message().find(WalSegmentName(1)), std::string::npos)
      << log.status();
  EXPECT_NE(log.status().message().find(std::to_string(first_record_offset)),
            std::string::npos)
      << log.status();
}

TEST(WalTest, DuplicateLsnsAreSkippedIdempotently) {
  TempDir dir;
  {
    WalWriter writer(dir.path(), {});
    ASSERT_TRUE(writer.Open(TestHeader(), 1).ok());
    uint64_t lsn = 0;
    ASSERT_TRUE(writer.Append(WalRecordType::kApply, "one", &lsn).ok());
    ASSERT_TRUE(writer.Append(WalRecordType::kApply, "two", &lsn).ok());
  }
  {
    // A writer reopened at an already-used lsn re-appends frame 2 — the
    // reader must treat the duplicate as already applied.
    WalWriter writer(dir.path(), {});
    ASSERT_TRUE(writer.Open(TestHeader(), 2).ok());
    uint64_t lsn = 0;
    ASSERT_TRUE(writer.Append(WalRecordType::kApply, "two again", &lsn).ok());
  }
  auto log = ReadLog(dir.path());
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_EQ(log->records.size(), 2u);
  EXPECT_EQ(log->records[1].payload, "two");  // first occurrence wins
  EXPECT_EQ(log->skipped, 1u);
}

// --- snapshots --------------------------------------------------------------

DurableState TestState(uint64_t last_lsn) {
  DurableState state;
  state.generation = 3;
  state.base_fingerprint = 0xFEED;
  state.last_lsn = last_lsn;
  DurableBranch branch;
  branch.name = "b";
  branch.parent = "main";
  branch.overrides["German"][2] = {{7, Value::Int(1)}, {9, Value::Double(0.5)}};
  branch.updates_applied = 4;
  branch.version = 2;
  branch.fnv_state = 0xABCDEF;
  state.branches.push_back(branch);
  return state;
}

TEST(SnapshotTest, RoundTripsState) {
  const DurableState state = TestState(41);
  auto back = DecodeSnapshot(EncodeSnapshot(state));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->generation, 3u);
  EXPECT_EQ(back->base_fingerprint, 0xFEEDu);
  EXPECT_EQ(back->last_lsn, 41u);
  ASSERT_EQ(back->branches.size(), 1u);
  EXPECT_EQ(back->branches[0].name, "b");
  EXPECT_EQ(back->branches[0].fnv_state, 0xABCDEFu);
  EXPECT_EQ(back->branches[0].overrides.at("German").at(2).at(9).Hash(),
            Value::Double(0.5).Hash());
}

TEST(SnapshotTest, CorruptNewestFallsBackToOlder) {
  TempDir dir;
  ASSERT_TRUE(WriteSnapshotFile(dir.path(), TestState(10)).ok());
  ASSERT_TRUE(WriteSnapshotFile(dir.path(), TestState(20)).ok());
  FlipByteAt(dir.path() + "/" + SnapshotName(20), 12);

  auto loaded = LoadLatestSnapshot(dir.path());
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->found);
  EXPECT_EQ(loaded->state.last_lsn, 10u);
  ASSERT_EQ(loaded->corrupt_skipped.size(), 1u);
  EXPECT_NE(loaded->corrupt_skipped[0].find(SnapshotName(20)),
            std::string::npos);
}

// --- service-level crash/recovery -------------------------------------------

constexpr const char* kQuery =
    "Use German When Status = 1 Update(Status) = 2 Output Count(Credit = 1)";
constexpr const char* kApplySql =
    "Use German When Savings = 0 Update(Credit) = 0 Output Count(*)";
constexpr const char* kApplySql2 =
    "Use German When Age = 1 Update(Savings) = 2 Output Count(*)";

class DurableServiceTest : public ::testing::Test {
 protected:
  /// Deterministic dataset: every call with the same seed reconstructs a
  /// bit-identical base, exactly like a server restart reloading its data.
  static data::Dataset MakeData(uint32_t seed = 11) {
    data::GermanOptions options;
    options.rows = 400;
    options.seed = seed;
    auto ds = data::MakeGermanSyn(options);
    EXPECT_TRUE(ds.ok()) << ds.status();
    return std::move(ds).value();
  }

  std::unique_ptr<service::ScenarioService> MakeService(
      const std::string& data_dir, uint32_t seed = 11,
      uint64_t snapshot_every = 0, obs::MetricsRegistry* registry = nullptr) {
    data::Dataset ds = MakeData(seed);
    service::ServiceOptions options;
    options.whatif.estimator = learn::EstimatorKind::kFrequency;
    options.num_threads = 1;
    options.data_dir = data_dir;
    // Deterministic tests never rely on timing: fsync every append.
    options.wal_fsync = FsyncPolicy::kAlways;
    options.snapshot_every_records = snapshot_every;
    options.metrics = registry;
    return std::make_unique<service::ScenarioService>(
        std::move(ds.db), std::move(ds.graph), options);
  }

  static double Answer(service::ScenarioService& service,
                       const std::string& scenario) {
    service::Request request;
    request.scenario = scenario;
    request.sql = kQuery;
    service::Response response = service.Submit(request);
    EXPECT_TRUE(response.ok()) << response.status;
    return response.whatif.value;
  }

  static std::vector<service::ScenarioInfo> SortedScenarios(
      service::ScenarioService& service) {
    auto infos = service.ListScenarios();
    std::sort(infos.begin(), infos.end(),
              [](const auto& a, const auto& b) { return a.name < b.name; });
    return infos;
  }
};

TEST_F(DurableServiceTest, RecoveredAnswersAreBitIdentical) {
  TempDir dir;
  std::vector<service::ScenarioInfo> live_infos;
  double live_main = 0.0, live_branch = 0.0;
  {
    auto service = MakeService(dir.path());
    ASSERT_TRUE(service->recovery_status().ok())
        << service->recovery_status();
    ASSERT_TRUE(service->CreateScenario("austerity").ok());
    auto applied = service->ApplyHypotheticalSql("austerity", kApplySql);
    ASSERT_TRUE(applied.ok()) << applied.status();
    ASSERT_TRUE(service->ApplyHypotheticalSql("austerity", kApplySql2).ok());
    ASSERT_TRUE(service->ApplyHypotheticalSql("main", kApplySql2).ok());
    live_infos = SortedScenarios(*service);
    live_main = Answer(*service, "main");
    live_branch = Answer(*service, "austerity");
    // Crash: the service is destroyed without any snapshot or drain — only
    // the WAL survives.
  }
  auto recovered = MakeService(dir.path());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status();
  EXPECT_TRUE(recovered->recovery_info().performed);
  EXPECT_FALSE(recovered->recovery_info().snapshot_loaded);
  EXPECT_EQ(recovered->recovery_info().records_replayed, 4u);

  const auto infos = SortedScenarios(*recovered);
  ASSERT_EQ(infos.size(), live_infos.size());
  for (size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].name, live_infos[i].name);
    EXPECT_EQ(infos[i].parent, live_infos[i].parent);
    EXPECT_EQ(infos[i].updates_applied, live_infos[i].updates_applied);
    EXPECT_EQ(infos[i].overridden_cells, live_infos[i].overridden_cells);
    // The headline invariant: recovered delta fingerprints (order-sensitive
    // FNV mixes) equal the live ones bit for bit.
    EXPECT_EQ(infos[i].delta_fingerprint, live_infos[i].delta_fingerprint)
        << infos[i].name;
  }
  // And therefore so do the answers (== on doubles, deliberately).
  EXPECT_EQ(Answer(*recovered, "main"), live_main);
  EXPECT_EQ(Answer(*recovered, "austerity"), live_branch);

  // A service that never crashed and never journaled agrees too: durability
  // must be invisible to query semantics.
  auto reference = MakeService("");
  ASSERT_TRUE(reference->CreateScenario("austerity").ok());
  ASSERT_TRUE(reference->ApplyHypotheticalSql("austerity", kApplySql).ok());
  ASSERT_TRUE(reference->ApplyHypotheticalSql("austerity", kApplySql2).ok());
  ASSERT_TRUE(reference->ApplyHypotheticalSql("main", kApplySql2).ok());
  EXPECT_EQ(Answer(*reference, "main"), live_main);
  EXPECT_EQ(Answer(*reference, "austerity"), live_branch);
}

TEST_F(DurableServiceTest, SnapshotPlusWalTailReplaysExactly) {
  TempDir dir;
  std::vector<service::ScenarioInfo> live_infos;
  {
    auto service = MakeService(dir.path());
    ASSERT_TRUE(service->CreateScenario("a").ok());
    ASSERT_TRUE(service->ApplyHypotheticalSql("a", kApplySql).ok());
    ASSERT_TRUE(service->SnapshotNow().ok());
    // Tail: records past the snapshot, replayed on top of it.
    ASSERT_TRUE(service->CreateScenario("b", "a").ok());
    ASSERT_TRUE(service->ApplyHypotheticalSql("b", kApplySql2).ok());
    live_infos = SortedScenarios(*service);
  }
  auto recovered = MakeService(dir.path());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status();
  EXPECT_TRUE(recovered->recovery_info().snapshot_loaded);
  EXPECT_EQ(recovered->recovery_info().records_replayed, 2u);

  const auto infos = SortedScenarios(*recovered);
  ASSERT_EQ(infos.size(), live_infos.size());
  for (size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].name, live_infos[i].name);
    EXPECT_EQ(infos[i].delta_fingerprint, live_infos[i].delta_fingerprint)
        << infos[i].name;
  }
}

TEST_F(DurableServiceTest, AutomaticSnapshotCadenceKeepsRecoveryExact) {
  TempDir dir;
  std::vector<service::ScenarioInfo> live_infos;
  {
    // Snapshot every 2 records: the run below crosses the cadence several
    // times, exercising rotation + pruning mid-traffic.
    auto service = MakeService(dir.path(), 11, /*snapshot_every=*/2);
    ASSERT_TRUE(service->CreateScenario("a").ok());
    ASSERT_TRUE(service->ApplyHypotheticalSql("a", kApplySql).ok());
    ASSERT_TRUE(service->CreateScenario("b", "a").ok());
    ASSERT_TRUE(service->ApplyHypotheticalSql("b", kApplySql2).ok());
    ASSERT_TRUE(service->ApplyHypotheticalSql("main", kApplySql2).ok());
    ASSERT_TRUE(service->DropScenario("a").ok());
    live_infos = SortedScenarios(*service);
    EXPECT_GE(service->wal_stats().snapshots_written, 1u);
  }
  auto recovered = MakeService(dir.path());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status();
  const auto infos = SortedScenarios(*recovered);
  ASSERT_EQ(infos.size(), live_infos.size());
  for (size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].name, live_infos[i].name);
    EXPECT_EQ(infos[i].delta_fingerprint, live_infos[i].delta_fingerprint);
  }
}

TEST_F(DurableServiceTest, DropTombstoneIsNeverResurrected) {
  TempDir dir;
  {
    auto service = MakeService(dir.path());
    ASSERT_TRUE(service->CreateScenario("doomed").ok());
    ASSERT_TRUE(service->ApplyHypotheticalSql("doomed", kApplySql).ok());
    ASSERT_TRUE(service->DropScenario("doomed").ok());
  }
  auto recovered = MakeService(dir.path());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status();
  // The create + apply records replay, then the tombstone erases the branch
  // — it must not outlive its drop, in any order of events.
  EXPECT_FALSE(recovered->HasScenario("doomed"));
  EXPECT_EQ(SortedScenarios(*recovered).size(), 1u);  // just "main"
}

TEST_F(DurableServiceTest, TornWalTailRecoversAndReports) {
  TempDir dir;
  {
    auto service = MakeService(dir.path());
    ASSERT_TRUE(service->CreateScenario("kept").ok());
  }
  // Crash mid-append: half a frame header at the end of the only segment.
  const std::string segment = dir.path() + "/wal/" + WalSegmentName(1);
  WriteFile(segment, ReadFile(segment) + std::string(9, '\x5A'));

  auto recovered = MakeService(dir.path());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status();
  EXPECT_TRUE(recovered->recovery_info().tail_truncated);
  EXPECT_EQ(recovered->recovery_info().truncated_bytes, 9u);
  EXPECT_TRUE(recovered->HasScenario("kept"));
}

TEST_F(DurableServiceTest, MidLogCorruptionGatesEveryOperation) {
  TempDir dir;
  size_t damage_offset = 0;
  {
    auto service = MakeService(dir.path());
    ASSERT_TRUE(service->CreateScenario("a").ok());
    damage_offset = ReadFile(dir.path() + "/wal/" + WalSegmentName(1)).size();
    ASSERT_TRUE(service->ApplyHypotheticalSql("a", kApplySql).ok());
    ASSERT_TRUE(service->CreateScenario("b", "a").ok());
  }
  // Flip one byte inside the apply record — valid frames follow, so this is
  // bit rot, not a torn tail.
  FlipByteAt(dir.path() + "/wal/" + WalSegmentName(1),
             damage_offset + kWalFrameHeaderBytes + 3);

  auto gated = MakeService(dir.path());
  const Status& rs = gated->recovery_status();
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.code(), StatusCode::kDataLoss);
  EXPECT_NE(rs.message().find(std::to_string(damage_offset)),
            std::string::npos)
      << rs;

  // The gate: every mutation and every submit refuses with exactly the
  // recovery status — the service never serves possibly-wrong state.
  EXPECT_EQ(gated->CreateScenario("c").code(), StatusCode::kDataLoss);
  EXPECT_EQ(gated->DropScenario("a").code(), StatusCode::kDataLoss);
  EXPECT_EQ(gated->ApplyHypotheticalSql("a", kApplySql).status().code(),
            StatusCode::kDataLoss);
  service::Request request;
  request.sql = kQuery;
  EXPECT_EQ(gated->Submit(request).status.code(), StatusCode::kDataLoss);
  EXPECT_EQ(gated->SnapshotNow().code(), StatusCode::kDataLoss);
  EXPECT_FALSE(gated->durable());
}

TEST_F(DurableServiceTest, WrongDatasetIsFailedPreconditionNotDataLoss) {
  TempDir dir;
  {
    auto service = MakeService(dir.path(), /*seed=*/11);
    ASSERT_TRUE(service->CreateScenario("a").ok());
  }
  // An intact data dir opened against a different base: operator error, not
  // storage corruption — the message should say which fingerprints disagree.
  auto mismatched = MakeService(dir.path(), /*seed=*/12);
  const Status& rs = mismatched->recovery_status();
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.code(), StatusCode::kFailedPrecondition);
}

TEST_F(DurableServiceTest, CorruptNewestSnapshotFallsBackToOlderPlusWal) {
  TempDir dir;
  std::vector<service::ScenarioInfo> live_infos;
  {
    auto service = MakeService(dir.path());
    ASSERT_TRUE(service->CreateScenario("a").ok());
    ASSERT_TRUE(service->ApplyHypotheticalSql("a", kApplySql).ok());
    ASSERT_TRUE(service->SnapshotNow().ok());
    ASSERT_TRUE(service->ApplyHypotheticalSql("a", kApplySql2).ok());
    ASSERT_TRUE(service->SnapshotNow().ok());
    live_infos = SortedScenarios(*service);
  }
  // Corrupt the newest snapshot: recovery falls back to the older one and
  // replays the WAL records past it instead of failing.
  auto snapshots = ListSnapshotFiles(dir.path());
  ASSERT_TRUE(snapshots.ok()) << snapshots.status();
  ASSERT_EQ(snapshots->size(), 2u);
  FlipByteAt(snapshots->back().second, 16);

  auto recovered = MakeService(dir.path());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status();
  EXPECT_EQ(recovered->recovery_info().corrupt_snapshots_skipped.size(), 1u);
  const auto infos = SortedScenarios(*recovered);
  ASSERT_EQ(infos.size(), live_infos.size());
  for (size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].delta_fingerprint, live_infos[i].delta_fingerprint);
  }
}

TEST_F(DurableServiceTest, ReloadGenerationSurvivesRecovery) {
  TempDir dir;
  std::vector<service::ScenarioInfo> live_infos;
  {
    auto service = MakeService(dir.path());
    ASSERT_TRUE(service->CreateScenario("pre_reload").ok());
    data::Dataset fresh = MakeData();
    ASSERT_TRUE(service->ReloadDataset(std::move(fresh.db)).ok());
    // Post-reload state is what must survive; pre-reload branches are gone.
    ASSERT_TRUE(service->CreateScenario("post_reload").ok());
    ASSERT_TRUE(service->ApplyHypotheticalSql("post_reload", kApplySql).ok());
    live_infos = SortedScenarios(*service);
  }
  auto recovered = MakeService(dir.path());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status();
  EXPECT_EQ(recovered->recovery_info().generation, 2u);
  EXPECT_FALSE(recovered->HasScenario("pre_reload"));
  ASSERT_TRUE(recovered->HasScenario("post_reload"));
  const auto infos = SortedScenarios(*recovered);
  ASSERT_EQ(infos.size(), live_infos.size());
  for (size_t i = 0; i < infos.size(); ++i) {
    EXPECT_EQ(infos[i].name, live_infos[i].name);
    EXPECT_EQ(infos[i].delta_fingerprint, live_infos[i].delta_fingerprint);
  }
}

// Branch writes that would put a string into a numeric column are refused
// before they are journaled, but a log written before that check existed
// may hold one. Such a record still replays onto its journaled fingerprint;
// queries over the branch then fail with InvalidArgument naming the column.
TEST_F(DurableServiceTest, LegacyMismatchedWriteReplaysAndQueriesFailTyped) {
  TempDir dir;
  uint64_t pre_fingerprint = 0;
  {
    auto service = MakeService(dir.path());
    ASSERT_TRUE(service->CreateScenario("legacy").ok());
    for (const service::ScenarioInfo& info : service->ListScenarios()) {
      if (info.name == "legacy") pre_fingerprint = info.delta_fingerprint;
    }
  }
  data::Dataset ds = MakeData();
  const size_t savings = ds.db.GetTable("German")
                             .value()
                             ->schema()
                             .IndexOf("Savings")
                             .value();
  {
    DurabilityOptions options;
    options.dir = dir.path();
    options.fsync = FsyncPolicy::kAlways;
    options.snapshot_every_records = 0;
    auto opened = Manager::Open(options, ds.db.ContentFingerprint());
    ASSERT_TRUE(opened.ok()) << opened.status();
    const std::vector<std::pair<size_t, Value>> cells = {
        {0, Value::String("lots")}};
    ApplyRecord record;
    record.branch = "legacy";
    record.pre_fingerprint = pre_fingerprint;
    record.post_fingerprint = service::ScenarioBranch::PreviewFingerprint(
        pre_fingerprint, "German", savings, cells);
    ApplyBatch batch;
    batch.relation = "German";
    batch.attr = savings;
    batch.cells.assign(cells.begin(), cells.end());
    record.batches.push_back(std::move(batch));
    ASSERT_TRUE(opened->manager->AppendApply(record).ok());
  }

  auto recovered = MakeService(dir.path());
  ASSERT_TRUE(recovered->recovery_status().ok())
      << recovered->recovery_status();
  service::Request request;
  request.scenario = "legacy";
  request.sql = kQuery;
  const service::Response response = recovered->Submit(request);
  EXPECT_EQ(StatusCode::kInvalidArgument, response.status.code())
      << response.status;
  EXPECT_NE(std::string::npos, response.status.message().find("Savings"))
      << response.status;
  // An apply selects its rows on the branch's columnar image, which the
  // mixed column rules out: a further apply fails the same typed way, and
  // the branch does not move.
  auto version_of_legacy = [&] {
    for (const service::ScenarioInfo& info : recovered->ListScenarios()) {
      if (info.name == "legacy") return info.version;
    }
    ADD_FAILURE() << "no scenario legacy";
    return uint64_t{0};
  };
  const uint64_t version = version_of_legacy();
  auto applied = recovered->ApplyHypotheticalSql("legacy", kApplySql);
  EXPECT_EQ(StatusCode::kInvalidArgument, applied.status().code())
      << applied.status();
  EXPECT_NE(std::string::npos, applied.status().message().find("Savings"))
      << applied.status();
  EXPECT_EQ(version, version_of_legacy());
  // main never saw the record and still answers.
  request.scenario = "main";
  EXPECT_TRUE(recovered->Submit(request).ok());
}

// A When that divides by zero fails the apply with the evaluator's typed
// error before anything is journaled: the WAL gains no record and the
// branch keeps its version.
TEST_F(DurableServiceTest, DivideByZeroWhenFailsTypedAndJournalsNothing) {
  TempDir dir;
  auto service = MakeService(dir.path());
  ASSERT_TRUE(service->CreateScenario("b").ok());
  ASSERT_TRUE(service->ApplyHypotheticalSql("b", kApplySql).ok());
  auto version_of_b = [&] {
    for (const service::ScenarioInfo& info : service->ListScenarios()) {
      if (info.name == "b") return info.version;
    }
    ADD_FAILURE() << "no scenario b";
    return uint64_t{0};
  };
  const uint64_t version = version_of_b();
  const uint64_t appends = service->wal_stats().appends;
  const uint64_t last_lsn = service->wal_stats().last_lsn;

  auto applied = service->ApplyHypotheticalSql(
      "b",
      "Use German When Savings / (Age - Age) = 1 Update(Status) = 2 "
      "Output Count(*)");
  EXPECT_EQ(StatusCode::kInvalidArgument, applied.status().code())
      << applied.status();
  EXPECT_NE(std::string::npos,
            applied.status().message().find("division by zero"))
      << applied.status();
  EXPECT_EQ(appends, service->wal_stats().appends);
  EXPECT_EQ(last_lsn, service->wal_stats().last_lsn);
  EXPECT_EQ(version, version_of_b());
}

TEST_F(DurableServiceTest, WalMetricsAreRegisteredAndCounted) {
  TempDir dir;
  obs::MetricsRegistry registry;
  auto service = MakeService(dir.path(), 11, /*snapshot_every=*/0, &registry);
  ASSERT_TRUE(service->CreateScenario("a").ok());
  ASSERT_TRUE(service->ApplyHypotheticalSql("a", kApplySql).ok());
  ASSERT_TRUE(service->SnapshotNow().ok());

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  auto value_of = [&](const std::string& name) -> double {
    for (const obs::MetricSample& s : snapshot.samples) {
      if (s.name == name) return s.value;
    }
    ADD_FAILURE() << "series not registered: " << name;
    return -1.0;
  };
  EXPECT_GE(value_of("hyper_wal_appends_total"), 2.0);
  EXPECT_GT(value_of("hyper_wal_bytes_total"), 0.0);
  EXPECT_GE(value_of("hyper_snapshots_total"), 1.0);
  EXPECT_GE(value_of("hyper_recovery_seconds"), 0.0);
  bool fsync_histogram = false;
  for (const obs::HistogramSample& h : snapshot.histograms) {
    if (h.name == "hyper_wal_fsync_seconds") {
      fsync_histogram = true;
      EXPECT_GE(h.count, 1u);  // kAlways: every append fsyncs
    }
  }
  EXPECT_TRUE(fsync_histogram);

  const WalStats stats = service->wal_stats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_GE(stats.appends, 2u);
  EXPECT_EQ(stats.snapshots_written, 1u);
  EXPECT_EQ(stats.records_since_snapshot, 0u);
}

}  // namespace
}  // namespace hyper::durability
