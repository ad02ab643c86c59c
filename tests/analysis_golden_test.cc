// Golden pin of both analyzers' complete output. Each program's result is
// dumped canonically — paths in order (AST ids, descriptions, locations,
// witness chain), the sensitive node set and every stats field — and the dump
// is checked against a recorded digest plus its path count.
//
// Programs: every corpus app alone, every deploy package (the vendored
// dependency bundle plus the app, §6.1's input shape) and the synthetic
// scaling programs. The Turnstile dump pins the analyzer's internal orders
// (source/sink discovery order, ascending adjacency in the BFS witness chains,
// fixpoint round count); the QueryDL dump pins the scope adapter it shares.
//
// The table below may only be re-recorded by a change that says why its
// answers moved. On a mismatch the test prints the program's actual row.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "src/analysis/analyzer.h"
#include "src/baseline/querydl.h"
#include "src/corpus/corpus.h"
#include "src/lang/parser.h"

namespace turnstile {
namespace {

constexpr int kVendorChain = 400;
constexpr int kSyntheticSizes[] = {2, 8, 32, 96};

struct GoldenRow {
  const char* program;
  uint64_t turnstile_digest;
  int turnstile_paths;
  uint64_t querydl_digest;
  int querydl_paths;
};

// clang-format off
const GoldenRow kGolden[] = {
    {"app/camera-motion", 0x7ace1e5a378cc163ull, 2, 0x92c79d2a44285672ull, 0},
    {"app/face-gate", 0xab81863438faa183ull, 4, 0x3534d746960505f7ull, 0},
    {"app/sensor-logger", 0x58b35a1d4ccc4d29ull, 1, 0x0a6a335a47155bbeull, 0},
    {"app/mqtt-bridge", 0x65b15ca10964785aull, 2, 0x6da2c684de588281ull, 0},
    {"app/email-alert", 0x15932059dfd5be27ull, 2, 0x980cec5c0eedeb71ull, 0},
    {"app/telemetry-post", 0xb9d889760d4b6317ull, 2, 0x2e72b93ea5124725ull, 0},
    {"app/dispatch-hub", 0xa3992829bdf8232eull, 3, 0x727944dbe5fd2bffull, 0},
    {"app/closure-router", 0x57dc07fb55097f03ull, 2, 0x418dc682a3949a74ull, 0},
    {"app/sqlite-history", 0x9cadc23e9b78709full, 1, 0x54037d34aab6544full, 0},
    {"app/voice-intent", 0xd21d8ed30368ffbdull, 2, 0x535049eccf5e2920ull, 0},
    {"app/smart-meter", 0x70f3182aea531c9eull, 2, 0x594c5e0da354c472ull, 0},
    {"app/presence-tracker", 0xbdc7e80be1d83c9full, 2, 0xaea18e3b231fb28cull, 0},
    {"app/doorbell-notify", 0x537173b42b4594f9ull, 2, 0xf84977e511801823ull, 0},
    {"app/frame-archiver", 0x3e4a2b97a42380f0ull, 2, 0xdbe644987bbab317ull, 0},
    {"app/geo-fence", 0xbe2cc818d80e4005ull, 1, 0x59327282520eaf7bull, 0},
    {"app/thermostat-sync", 0x65dd06b35edc3af5ull, 2, 0x6939cdc7b59aeeaaull, 0},
    {"app/audio-level", 0x9592c57d4fee5822ull, 2, 0x7a878f3fbed524e8ull, 0},
    {"app/baby-monitor", 0x76fe9b71c927987full, 3, 0x7e640032dfd676eeull, 0},
    {"app/parcel-scanner", 0xb5536c4cfc10c395ull, 2, 0x7b1769cdba42cb1cull, 0},
    {"app/nlp.js", 0x733e6ab40c737e7bull, 1, 0xe7466976ec42acccull, 0},
    {"app/amazon-echo", 0x235b65f5217a4c87ull, 2, 0xbc2ff8bd52ce6f98ull, 0},
    {"app/dialogflow", 0x81b2d5d5eb9d7805ull, 2, 0x89e4676970832a0bull, 0},
    {"app/modbus", 0x9d8a66f86461d57eull, 3, 0x7b2c010f13915327ull, 1},
    {"app/watson", 0xc4530590b9276dd8ull, 3, 0xd9096307478e42d8ull, 2},
    {"app/rtsp-relay", 0x9afd4918c58f44f9ull, 3, 0x410ed0cd88ff9a1full, 2},
    {"app/legacy-gateway", 0xc17a289b6b5fd60bull, 1, 0xb772a0f2fedc878aull, 2},
    {"app/file-sync", 0xf78dee4733e7b09cull, 2, 0x9ac8f3d1f5bafd23ull, 2},
    {"app/proto-pipeline", 0xd69cbdfaea1a7bfdull, 0, 0x96fa360979f55117ull, 1},
    {"app/plugin-chain", 0x48908985fe1c58eeull, 0, 0x741eeb02d3bbabb9ull, 2},
    {"app/http-echo-admin", 0x8c38cdc2c1db4b09ull, 0, 0x527fbdde835c4d61ull, 0},
    {"app/http-frame-upload", 0x11fec6909c1068dcull, 0, 0x19ce2f7855f41841ull, 0},
    {"app/http-command-relay", 0x864658fdfc2c78afull, 0, 0xd49b195cfc5b259aull, 0},
    {"app/http-query-log", 0x9ec778686ebd0480ull, 0, 0xe1cc06b59663b32bull, 0},
    {"app/settings-exporter", 0x89fa0b3ca0464ea4ull, 0, 0xdec4332faecfb29bull, 0},
    {"app/http-badge-lookup", 0x51d9cbf3b3c095a4ull, 0, 0xebb6dcc95680f44eull, 0},
    {"app/http-sensor-feed", 0xb4a85be4ca92175bull, 0, 0xb08dc7171d2ee761ull, 0},
    {"app/context-broadcaster", 0x281b0033153434dbull, 0, 0x73fb90afaa937c4aull, 0},
    {"app/http-config-patch", 0x89fd653ca0491d69ull, 0, 0x3257159365e6525full, 0},
    {"app/http-camera-proxy", 0xada8d321018ec8d7ull, 0, 0xf085aa1202db354cull, 0},
    {"app/ui-slider-sync", 0x4e854e35bd40d125ull, 0, 0xb490efecf422d841ull, 0},
    {"app/http-gps-ingest", 0xdeccba241b9be4e8ull, 0, 0xe4f015e94585535cull, 0},
    {"app/http-intercom", 0xc154a5af5d6edb79ull, 0, 0xea717eac0482430aull, 0},
    {"app/http-firmware-check", 0x1265b84765c4423aull, 0, 0xaa465d6062a91b76ull, 0},
    {"app/http-guestbook", 0xb64d1022013feb9aull, 0, 0xff5ee01641a1dc5full, 0},
    {"app/injected-uplink", 0x16ba10675ab5e810ull, 0, 0xf02ed05fe999991aull, 0},
    {"app/http-token-mint", 0xcf3c37fc34d0e9bcull, 0, 0x31ee65ea817b3577ull, 0},
    {"app/http-meter-export", 0xccdc7733cd4995dfull, 0, 0x56eb31555f5d11b2ull, 0},
    {"app/global-blackboard", 0x823fa42dc4b72385ull, 0, 0xf2786bb8c52895d4ull, 0},
    {"app/http-alarm-ack", 0x788c0d6c3c854b27ull, 0, 0xc9bebe4783d8fc27ull, 0},
    {"app/http-scene-trigger", 0x5581fdc0fdc07441ull, 0, 0x1505943dd3f23058ull, 0},
    {"app/http-diagnostics", 0x498f8ab907aed3f2ull, 0, 0xe1dcb67c53dae377ull, 0},
    {"app/injected-notifier", 0x493ddbf6e2285cdfull, 0, 0x78c2bf0677df48cbull, 0},
    {"app/http-export-csv", 0xef1fbbee4f287d0aull, 0, 0x860f89b31d0a14aaull, 0},
    {"app/http-ota-push", 0xaba8d95b6c638c98ull, 0, 0x3f908337adc7090bull, 0},
    {"app/http-mirror-cluster", 0x8eacf168bd5053bbull, 0, 0x9c6e6dedf9163e33ull, 0},
    {"app/status-led", 0x20fda5df50bda128ull, 0, 0xb0199eaa5487c546ull, 0},
    {"app/config-loader", 0x63cf8e2c1fcb6f5full, 0, 0x4060787f5cbce265ull, 0},
    {"app/unit-converter", 0xc05aba9fe1743034ull, 0, 0x86f198b398d9784bull, 0},
    {"app/scheduler", 0x50b227567da8eea1ull, 0, 0xb8c21e4a165e3746ull, 0},
    {"app/rate-limiter", 0xe466dee792904dceull, 0, 0xe11bf0a375143ca6ull, 0},
    {"app/debug-counter", 0x50c0677b43b6d705ull, 0, 0x61f997d3d92d283full, 0},
    {"pkg/camera-motion", 0x91dfec646309f206ull, 2, 0x13466fe667c88cf4ull, 0},
    {"pkg/face-gate", 0x98625cf92cecaa17ull, 4, 0x0bb62bef98e0cfeaull, 0},
    {"pkg/sensor-logger", 0xb8f7f14c120777e9ull, 1, 0x99f0f5037f0ff8d6ull, 0},
    {"pkg/mqtt-bridge", 0x94575531ce4311e4ull, 2, 0x156b01712709e388ull, 0},
    {"pkg/email-alert", 0xaadbfb5535a526b4ull, 2, 0x36d6720b00f6cb4cull, 0},
    {"pkg/telemetry-post", 0x45a1f968dbd1f42cull, 2, 0x0b71c3d8949105a2ull, 0},
    {"pkg/dispatch-hub", 0x9e2b0edb61cf4b00ull, 3, 0x6d288e056e6c8c48ull, 0},
    {"pkg/closure-router", 0xeb47ef9566c4c947ull, 2, 0x3dbe2877203d0786ull, 0},
    {"pkg/sqlite-history", 0x35a06873977903b8ull, 1, 0x09d6a390b98f3450ull, 0},
    {"pkg/voice-intent", 0x954029042f3fc942ull, 2, 0xfdcd66412b6937d9ull, 0},
    {"pkg/smart-meter", 0xf3406170b8c6a7d9ull, 2, 0x1cbadf466b5ab1f0ull, 0},
    {"pkg/presence-tracker", 0xfb41250481f3ec6bull, 2, 0x9b568255d7c0155aull, 0},
    {"pkg/doorbell-notify", 0xb24643f18a8206b8ull, 2, 0x8d60ca578561609eull, 0},
    {"pkg/frame-archiver", 0x9f1f785555971250ull, 2, 0xb39b30552aeb18faull, 0},
    {"pkg/geo-fence", 0xbbcfafb5df976057ull, 1, 0x8b0d7167277c56e0ull, 0},
    {"pkg/thermostat-sync", 0x56099cf036b88709ull, 2, 0x930f8c3f5a28ebd7ull, 0},
    {"pkg/audio-level", 0x2e2eba726daa8fb4ull, 2, 0x6555bb39c5e1b3c7ull, 0},
    {"pkg/baby-monitor", 0xe9d9849c22511959ull, 3, 0x4602eaa4f14782b5ull, 0},
    {"pkg/parcel-scanner", 0xb58c8a469c11b0f7ull, 2, 0x42136c668910d278ull, 0},
    {"pkg/nlp.js", 0x1ef9a00a170eb9e1ull, 1, 0x773ddb437d4701f6ull, 0},
    {"pkg/amazon-echo", 0x6f0bf048abfdae63ull, 2, 0x296bba988f4f8ba4ull, 0},
    {"pkg/dialogflow", 0xb481c6235686bc12ull, 2, 0x7d4adcda52be039cull, 0},
    {"pkg/modbus", 0xb0c6e8d9b52007b9ull, 3, 0x9e3f16c1b5373762ull, 1},
    {"pkg/watson", 0x35aae6e3abd76a3dull, 3, 0x8d34838939edd7c7ull, 2},
    {"pkg/rtsp-relay", 0x0c15ec351e12e5a6ull, 3, 0xc00e0eb1a2e6a271ull, 2},
    {"pkg/legacy-gateway", 0xc72436ce1953a535ull, 1, 0xfd006ebd8bc93b3bull, 2},
    {"pkg/file-sync", 0x0e9e1f8055e3ed52ull, 2, 0xd7d10c3989a5f57dull, 2},
    {"pkg/proto-pipeline", 0xe3cff85937bd463eull, 0, 0x664f8f6fe2849cf4ull, 1},
    {"pkg/plugin-chain", 0xad545407971b9876ull, 0, 0x12ddd49afe468a11ull, 2},
    {"pkg/http-echo-admin", 0x7533505b3f47ffb1ull, 0, 0xfe60db4468772945ull, 0},
    {"pkg/http-frame-upload", 0xaa25472f62e7a14eull, 0, 0xa5f0a03c150f6e6dull, 0},
    {"pkg/http-command-relay", 0x6509b8f18047a518ull, 0, 0x507ee87ca309a231ull, 0},
    {"pkg/http-query-log", 0xae637ee92a1cf8ddull, 0, 0x0212d07b741e2361ull, 0},
    {"pkg/settings-exporter", 0x2f45b16a5bf0bb23ull, 0, 0xd5f1845125374096ull, 0},
    {"pkg/http-badge-lookup", 0x821b71fffc78aaa1ull, 0, 0xadf1db5742107eedull, 0},
    {"pkg/http-sensor-feed", 0xbbb60efd702a932eull, 0, 0xbafd77a45a25cd8aull, 0},
    {"pkg/context-broadcaster", 0x56b3c6f7895f7292ull, 0, 0xe17af39e128d4873ull, 0},
    {"pkg/http-config-patch", 0x2f424f6a5beddec6ull, 0, 0x51e8a7242e502bf4ull, 0},
    {"pkg/http-camera-proxy", 0xa2d73f19093d8b1full, 0, 0xca27b5395423d7b5ull, 0},
    {"pkg/ui-slider-sync", 0x74f77fcd1f024a99ull, 0, 0xb46834dc0690d82cull, 0},
    {"pkg/http-gps-ingest", 0xcde0fd4d0bc443fbull, 0, 0x0184cb0fcb9c5adbull, 0},
    {"pkg/http-intercom", 0x116aac32b5988d2cull, 0, 0x1709fdeec92e1127ull, 0},
    {"pkg/http-firmware-check", 0x0742dfbae7ad4600ull, 0, 0x37d052e48ddcf47full, 0},
    {"pkg/http-guestbook", 0x24c3e28511136c82ull, 0, 0x6fc879e70894367aull, 0},
    {"pkg/injected-uplink", 0xbfbe614711dd1aa3ull, 0, 0x694c26316fcc6bfeull, 0},
    {"pkg/http-token-mint", 0x7045f9501fc4dca4ull, 0, 0x83b85fd079386200ull, 0},
    {"pkg/http-meter-export", 0xbe4bd4906bf55f07ull, 0, 0x83ce6d2c7c336529ull, 0},
    {"pkg/global-blackboard", 0x381d45c097f0890eull, 0, 0x089995ae3060ec87ull, 0},
    {"pkg/http-alarm-ack", 0xeebfa73ad53a24f2ull, 0, 0xe5942d76b567e979ull, 0},
    {"pkg/http-scene-trigger", 0x1da103873823eee2ull, 0, 0xc7cc2f1a1cbc2452ull, 0},
    {"pkg/http-diagnostics", 0x47d06534fb3e7402ull, 0, 0x10b54d38b761d8d8ull, 0},
    {"pkg/injected-notifier", 0x5d66916da079ccc7ull, 0, 0x2cec3f415b7b19d2ull, 0},
    {"pkg/http-export-csv", 0xaf392559819018c7ull, 0, 0x45dccaeada51ced8ull, 0},
    {"pkg/http-ota-push", 0xbf77d2382e472fb5ull, 0, 0xf064cda6ba1eed8dull, 0},
    {"pkg/http-mirror-cluster", 0xf5631a464b79ea9aull, 0, 0x9be7220913d7e7e3ull, 0},
    {"pkg/status-led", 0x8941d22ef0031fc3ull, 0, 0xdd5fd85bfaabd69aull, 0},
    {"pkg/config-loader", 0x3f76e618696de5d4ull, 0, 0xeadd2892347217a4ull, 0},
    {"pkg/unit-converter", 0x915c6b0654ff72edull, 0, 0x1ac23dbdea8df1b2ull, 0},
    {"pkg/scheduler", 0xfad693b6698da569ull, 0, 0x657e30971994d758ull, 0},
    {"pkg/rate-limiter", 0x1059839ffdfcb9edull, 0, 0x4ea127eea24c65f3ull, 0},
    {"pkg/debug-counter", 0xc6e80131915006a4ull, 0, 0xe756ec6174fe9271ull, 0},
    {"synthetic/2", 0x1ede4f00a12826baull, 2, 0x127a016991def0a8ull, 2},
    {"synthetic/8", 0xb075cbcb6ea303e9ull, 8, 0xe9cfb8c1d92cee0eull, 8},
    {"synthetic/32", 0x8b77915fd9a46b33ull, 32, 0x412140e59e71179dull, 32},
    {"synthetic/96", 0xc24d74f344a8d583ull, 96, 0x6c068060cf656762ull, 96},
};
// clang-format on

struct GoldenProgram {
  std::string name;  // "app/<name>", "pkg/<name>" or "synthetic/<n>"
  std::string file;
  std::string source;
};

std::vector<GoldenProgram> GoldenPrograms() {
  std::vector<GoldenProgram> out;
  const std::string vendor = VendoredDependencyBundle(kVendorChain);
  for (const CorpusApp& app : Corpus()) {
    out.push_back({"app/" + app.name, app.name + ".js", app.source});
  }
  for (const CorpusApp& app : Corpus()) {
    out.push_back({"pkg/" + app.name, app.name + ".js", vendor + app.source});
  }
  for (int n : kSyntheticSizes) {
    out.push_back({"synthetic/" + std::to_string(n), "app.js", SyntheticHandlerProgram(n)});
  }
  return out;
}

// Appends `text` then `value` (string pieces are appended one by one: GCC
// 12's -Wrestrict misfires on "literal" + std::string temporaries).
void Field(std::string* out, const char* text, long long value) {
  *out += text;
  *out += std::to_string(value);
}

void DumpPaths(const std::vector<DataflowPath>& paths, std::string* out) {
  Field(out, "paths ", static_cast<long long>(paths.size()));
  for (const DataflowPath& path : paths) {
    Field(out, "\npath ", path.source_ast);
    Field(out, " -> ", path.sink_ast);
    *out += " [";
    *out += path.source_description;
    *out += "] -> [";
    *out += path.sink_description;
    *out += "] at ";
    *out += path.source_loc.ToString();
    *out += " -> ";
    *out += path.sink_loc.ToString();
    *out += " via";
    for (int node : path.via_ast_nodes) {
      Field(out, " ", node);
    }
  }
  *out += "\n";
}

std::string DumpTurnstile(const AnalysisResult& result) {
  std::string out;
  DumpPaths(result.paths, &out);
  out += "sensitive";
  for (int node : result.sensitive_ast_nodes) {
    Field(&out, " ", node);
  }
  const AnalysisStats& s = result.stats;
  Field(&out, "\nstats nodes=", s.graph_nodes);
  Field(&out, " edges=", s.graph_edges);
  Field(&out, " rounds=", s.fixpoint_rounds);
  Field(&out, " sources=", s.sources_found);
  Field(&out, " sinks=", s.sinks_found);
  out += "\n";
  return out;
}

std::string DumpQueryDl(const QueryDlResult& result) {
  std::string out;
  DumpPaths(result.paths, &out);
  const QueryDlStats& s = result.stats;
  Field(&out, "stats ir=", s.ir_instructions);
  Field(&out, " slots=", s.flow_slots);
  Field(&out, " edges=", s.flow_edges);
  Field(&out, " word_ops=", static_cast<long long>(s.closure_word_ops));
  Field(&out, " sources=", s.sources_found);
  Field(&out, " sinks=", s.sinks_found);
  out += "\n";
  return out;
}

// FNV-1a, 64-bit.
uint64_t Digest(const std::string& text) {
  uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : text) {
    hash = (hash ^ c) * 1099511628211ull;
  }
  return hash;
}

const GoldenRow* FindRow(const std::string& program) {
  for (const GoldenRow& row : kGolden) {
    if (program == row.program) {
      return &row;
    }
  }
  return nullptr;
}

class AnalysisGoldenTest : public testing::TestWithParam<int> {};

TEST_P(AnalysisGoldenTest, OutputMatchesRecordedDigest) {
  static const std::vector<GoldenProgram> programs = GoldenPrograms();
  const GoldenProgram& program = programs[static_cast<size_t>(GetParam())];
  auto parsed = ParseProgram(program.source, program.file);
  ASSERT_TRUE(parsed.ok()) << program.name << ": " << parsed.status().ToString();
  auto turnstile = AnalyzeProgram(*parsed);
  ASSERT_TRUE(turnstile.ok()) << turnstile.status().ToString();
  auto querydl = QueryDlAnalyze(*parsed);
  ASSERT_TRUE(querydl.ok()) << querydl.status().ToString();

  const std::string turnstile_dump = DumpTurnstile(*turnstile);
  const std::string querydl_dump = DumpQueryDl(*querydl);
  char actual[512];
  std::snprintf(actual, sizeof(actual),
                "    {\"%s\", 0x%016" PRIx64 "ull, %zu, 0x%016" PRIx64 "ull, %zu},",
                program.name.c_str(), Digest(turnstile_dump), turnstile->paths.size(),
                Digest(querydl_dump), querydl->paths.size());

  const GoldenRow* row = FindRow(program.name);
  ASSERT_NE(row, nullptr) << "no golden row; actual:\n" << actual;
  EXPECT_EQ(static_cast<int>(turnstile->paths.size()), row->turnstile_paths)
      << "actual row:\n" << actual;
  EXPECT_EQ(Digest(turnstile_dump), row->turnstile_digest)
      << "actual row:\n" << actual << "\nTurnstile dump:\n" << turnstile_dump;
  EXPECT_EQ(static_cast<int>(querydl->paths.size()), row->querydl_paths)
      << "actual row:\n" << actual;
  EXPECT_EQ(Digest(querydl_dump), row->querydl_digest)
      << "actual row:\n" << actual << "\nQueryDL dump:\n" << querydl_dump;
}

INSTANTIATE_TEST_SUITE_P(
    Programs, AnalysisGoldenTest,
    testing::Range(0, static_cast<int>(GoldenPrograms().size())),
    [](const testing::TestParamInfo<int>& param) {
      static const std::vector<GoldenProgram> programs = GoldenPrograms();
      std::string name = programs[static_cast<size_t>(param.param)].name;
      for (char& c : name) {
        if (!isalnum(static_cast<unsigned char>(c))) {
          c = '_';
        }
      }
      return name;
    });

// Every program has a row and every row a program: no row can go stale.
TEST(AnalysisGoldenTableTest, CoversEveryProgramExactly) {
  std::vector<GoldenProgram> programs = GoldenPrograms();
  EXPECT_EQ(programs.size(), std::size(kGolden));
  EXPECT_EQ(programs.size(), 2 * Corpus().size() + std::size(kSyntheticSizes));
  for (const GoldenProgram& program : programs) {
    EXPECT_NE(FindRow(program.name), nullptr) << program.name;
  }
}

}  // namespace
}  // namespace turnstile
