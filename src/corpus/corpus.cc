#include "src/corpus/corpus.h"

#include <unordered_map>

#include "src/support/rng.h"
#include "src/support/strings.h"

namespace turnstile {

// Bucket population builders (corpus_data_*.cc).
void AppendTurnstileOnlyApps(std::vector<CorpusApp>* apps);  // 22
void AppendBothFindApps(std::vector<CorpusApp>* apps);       // 5
void AppendQueryDlOnlyApps(std::vector<CorpusApp>* apps);    // 2
void AppendBothMissApps(std::vector<CorpusApp>* apps);       // 26
void AppendNoPathApps(std::vector<CorpusApp>* apps);         // 6

const char* CorpusBucketName(CorpusBucket bucket) {
  switch (bucket) {
    case CorpusBucket::kTurnstileOnly:
      return "turnstile-only";
    case CorpusBucket::kBothFind:
      return "both-find";
    case CorpusBucket::kQueryDlOnly:
      return "querydl-only";
    case CorpusBucket::kBothMiss:
      return "both-miss";
    case CorpusBucket::kNoPaths:
      return "no-paths";
  }
  return "?";
}

const std::vector<CorpusApp>& Corpus() {
  static const std::vector<CorpusApp>* kApps = [] {
    auto* apps = new std::vector<CorpusApp>();
    AppendTurnstileOnlyApps(apps);
    AppendBothFindApps(apps);
    AppendQueryDlOnlyApps(apps);
    AppendBothMissApps(apps);
    AppendNoPathApps(apps);
    return apps;
  }();
  return *kApps;
}

const CorpusApp* FindCorpusApp(const std::string& name) {
  for (const CorpusApp& app : Corpus()) {
    if (app.name == name) {
      return &app;
    }
  }
  return nullptr;
}

std::string VendoredDependencyBundle(int chain_length) {
  std::string out;
  out.reserve(static_cast<size_t>(chain_length) * 64 + 2048);
  out +=
      "// --- vendored dependency bundle (minified-style) ---\n"
      "function u_mix(a, b) { return a * 31 + b % 97; }\n"
      "function u_rot(a) { return a * 2 + 1; }\n"
      "function u_clip(a) { return a % 100003; }\n"
      "function u_fold(xs) {\n"
      "  let acc = 0;\n"
      "  for (let x of xs) { acc = u_clip(u_mix(acc, x)); }\n"
      "  return acc;\n"
      "}\n"
      "let u_state0 = 7;\n";
  // A long single-assignment initialization chain — the def-use shape that
  // makes whole-relation materialization expensive.
  for (int i = 1; i <= chain_length; ++i) {
    out += "let u_state" + std::to_string(i) + " = u_clip(u_mix(u_rot(u_state" +
           std::to_string(i - 1) + "), " + std::to_string(i) + "));\n";
  }
  out += "let u_table = [";
  for (int i = 0; i <= chain_length; i += std::max(1, chain_length / 64)) {
    if (i > 0) {
      out += ", ";
    }
    out += "u_state" + std::to_string(i);
  }
  out += "];\nlet u_digest = u_fold(u_table);\n";
  return out;
}

std::string SyntheticHandlerProgram(int n) {
  std::string source = "let net = require(\"net\");\nlet fs = require(\"fs\");\n"
                       "let socket = net.connect(1, \"host\");\n";
  for (int i = 0; i < n; ++i) {
    std::string id = std::to_string(i);
    source += "function helper" + id + "(x) { return \"h" + id + ":\" + x; }\n";
    source += "socket.on(\"data\", chunk => {\n";
    source += "  let derived" + id + " = helper" + id + "(chunk) + " + id + ";\n";
    source += "  fs.writeFileSync(\"/out/" + id + "\", derived" + id + ");\n";
    source += "});\n";
  }
  return source;
}

// --- Table 2 census -------------------------------------------------------------

namespace {

struct FrameworkProfile {
  const char* name;
  const char* signature;      // the code signature the paper searched for
  int repo_count;             // ground-truth repos in the synthetic population
  int total_matches;          // ground-truth search hits (signature occurrences)
};

// Calibrated to Table 2's totals (1,149 repositories).
const FrameworkProfile kProfiles[] = {
    {"Node-RED", "RED.nodes.createNode", 677, 2676},
    {"Azure IoT", "Client.fromConnectionString", 357, 727},
    {"HomeBridge", "homebridge.registerAccessory", 57, 171},
    {"OpenHAB", "openhab.rules.JSRule", 14, 70},
    {"SmartThings", "new SmartApp", 29, 42},
    {"AWS Greengrass", "greengrasssdk.client", 15, 27},
};

}  // namespace

std::string DetectFramework(const std::string& source) {
  for (const FrameworkProfile& profile : kProfiles) {
    if (Contains(source, profile.signature)) {
      return profile.name;
    }
  }
  return "";
}

std::vector<CensusRepo> GenerateCensusPopulation(uint64_t seed) {
  Rng rng(seed);
  std::vector<CensusRepo> repos;
  for (const FrameworkProfile& profile : kProfiles) {
    // Distribute `total_matches` signature occurrences over `repo_count`
    // repositories: every repo gets one, the surplus is spread at random.
    std::vector<int> matches(static_cast<size_t>(profile.repo_count), 1);
    for (int extra = profile.total_matches - profile.repo_count; extra > 0; --extra) {
      ++matches[rng.NextBelow(static_cast<uint64_t>(profile.repo_count))];
    }
    for (int i = 0; i < profile.repo_count; ++i) {
      CensusRepo repo;
      repo.name = std::string(profile.name) + "-" + rng.NextWord(6) + "-" + std::to_string(i);
      repo.true_framework = profile.name;
      std::string body = "// " + repo.name + "\n";
      for (int m = 0; m < matches[static_cast<size_t>(i)]; ++m) {
        body += "function " + rng.NextWord(8) + "() {\n  " + profile.signature +
                "(this, config);\n}\n";
      }
      repo.main_source_excerpt = std::move(body);
      repos.push_back(std::move(repo));
    }
  }
  // Shuffle so the population is not bucket-ordered.
  for (size_t i = repos.size(); i > 1; --i) {
    std::swap(repos[i - 1], repos[rng.NextBelow(i)]);
  }
  return repos;
}

}  // namespace turnstile
