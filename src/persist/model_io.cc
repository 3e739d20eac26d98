#include "persist/model_io.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "schema/corpus_io.h"
#include "util/bitset.h"
#include "util/string_util.h"

namespace paygo {
namespace {

constexpr std::string_view kModelHeader = "paygo-model v1";
constexpr std::string_view kConditionalsHeader = "paygo-classifier v1";
constexpr std::string_view kSnapshotHeader = "paygo-snapshot v1";
constexpr std::string_view kSnapshotHeaderV2 = "paygo-snapshot v2";

/// Round-trip-exact double formatting.
std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Result<double> ParseDouble(const std::string& s) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("malformed number '" + s + "'");
  }
  return v;
}

Result<std::uint64_t> ParseUint(const std::string& s) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    return Status::InvalidArgument("malformed integer '" + s + "'");
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

std::string SerializeDomainModel(const DomainModel& model) {
  std::ostringstream os;
  os << kModelHeader << "\n";
  os << "counts " << model.num_domains() << " " << model.num_schemas()
     << "\n";
  for (std::uint32_t r = 0; r < model.num_domains(); ++r) {
    os << "cluster " << r;
    for (std::uint32_t i : model.Cluster(r)) os << " " << i;
    os << "\n";
  }
  for (std::uint32_t i = 0; i < model.num_schemas(); ++i) {
    const auto& ds = model.DomainsOf(i);
    if (ds.empty()) continue;
    os << "membership " << i;
    for (const auto& [domain, prob] : ds) {
      os << " " << domain << ":" << Fmt(prob);
    }
    os << "\n";
  }
  return os.str();
}

Result<DomainModel> ParseDomainModel(std::string_view text) {
  const std::vector<std::string> lines = Split(text, '\n');
  std::size_t ln = 0;
  auto fail = [&](const std::string& msg) {
    return Status::InvalidArgument("model line " + std::to_string(ln + 1) +
                                   ": " + msg);
  };
  if (lines.empty() || Trim(lines[0]) != kModelHeader) {
    return Status::InvalidArgument("missing paygo-model header");
  }
  std::size_t num_domains = 0, num_schemas = 0;
  std::vector<std::vector<std::uint32_t>> clusters;
  std::vector<std::vector<std::pair<std::uint32_t, double>>> schema_domains;
  for (ln = 1; ln < lines.size(); ++ln) {
    const std::string line = Trim(lines[ln]);
    if (line.empty()) continue;
    const std::vector<std::string> tok = SplitAny(line, " ");
    if (tok[0] == "counts") {
      if (tok.size() != 3) return fail("counts needs two integers");
      PAYGO_ASSIGN_OR_RETURN(const std::uint64_t d, ParseUint(tok[1]));
      PAYGO_ASSIGN_OR_RETURN(const std::uint64_t s, ParseUint(tok[2]));
      num_domains = d;
      num_schemas = s;
      clusters.assign(num_domains, {});
      schema_domains.assign(num_schemas, {});
    } else if (tok[0] == "cluster") {
      if (tok.size() < 2) return fail("cluster needs an id");
      PAYGO_ASSIGN_OR_RETURN(const std::uint64_t r, ParseUint(tok[1]));
      if (r >= clusters.size()) return fail("cluster id out of range");
      for (std::size_t k = 2; k < tok.size(); ++k) {
        PAYGO_ASSIGN_OR_RETURN(const std::uint64_t i, ParseUint(tok[k]));
        if (i >= num_schemas) return fail("schema id out of range");
        clusters[r].push_back(static_cast<std::uint32_t>(i));
      }
    } else if (tok[0] == "membership") {
      if (tok.size() < 2) return fail("membership needs a schema id");
      PAYGO_ASSIGN_OR_RETURN(const std::uint64_t i, ParseUint(tok[1]));
      if (i >= num_schemas) return fail("schema id out of range");
      for (std::size_t k = 2; k < tok.size(); ++k) {
        const std::vector<std::string> pair = Split(tok[k], ':');
        if (pair.size() != 2) return fail("membership entry needs d:p");
        PAYGO_ASSIGN_OR_RETURN(const std::uint64_t d, ParseUint(pair[0]));
        PAYGO_ASSIGN_OR_RETURN(const double p, ParseDouble(pair[1]));
        if (d >= num_domains) return fail("domain id out of range");
        schema_domains[i].emplace_back(static_cast<std::uint32_t>(d), p);
      }
    } else {
      return fail("unknown directive '" + tok[0] + "'");
    }
  }
  return DomainModel::Build(std::move(clusters), std::move(schema_domains));
}

std::string SerializeConditionals(ConditionalsView conditionals) {
  std::ostringstream os;
  os << kConditionalsHeader << "\n";
  const std::size_t dim =
      conditionals.empty() ? 0 : conditionals[0].q1.size();
  os << "counts " << conditionals.size() << " " << dim << "\n";
  for (std::size_t r = 0; r < conditionals.size(); ++r) {
    os << "prior " << r << " " << Fmt(conditionals[r].prior) << "\n";
    os << "q1 " << r;
    for (double q : conditionals[r].q1) os << " " << Fmt(q);
    os << "\n";
  }
  return os.str();
}

Result<std::vector<DomainConditionals>> ParseConditionals(
    std::string_view text) {
  const std::vector<std::string> lines = Split(text, '\n');
  std::size_t ln = 0;
  auto fail = [&](const std::string& msg) {
    return Status::InvalidArgument("classifier line " +
                                   std::to_string(ln + 1) + ": " + msg);
  };
  if (lines.empty() || Trim(lines[0]) != kConditionalsHeader) {
    return Status::InvalidArgument("missing paygo-classifier header");
  }
  std::vector<DomainConditionals> out;
  std::size_t dim = 0;
  for (ln = 1; ln < lines.size(); ++ln) {
    const std::string line = Trim(lines[ln]);
    if (line.empty()) continue;
    const std::vector<std::string> tok = SplitAny(line, " ");
    if (tok[0] == "counts") {
      if (tok.size() != 3) return fail("counts needs two integers");
      PAYGO_ASSIGN_OR_RETURN(const std::uint64_t d, ParseUint(tok[1]));
      PAYGO_ASSIGN_OR_RETURN(const std::uint64_t dd, ParseUint(tok[2]));
      out.assign(d, DomainConditionals{});
      dim = dd;
    } else if (tok[0] == "prior") {
      if (tok.size() != 3) return fail("prior needs id and value");
      PAYGO_ASSIGN_OR_RETURN(const std::uint64_t r, ParseUint(tok[1]));
      if (r >= out.size()) return fail("domain id out of range");
      PAYGO_ASSIGN_OR_RETURN(out[r].prior, ParseDouble(tok[2]));
    } else if (tok[0] == "q1") {
      if (tok.size() < 2) return fail("q1 needs a domain id");
      PAYGO_ASSIGN_OR_RETURN(const std::uint64_t r, ParseUint(tok[1]));
      if (r >= out.size()) return fail("domain id out of range");
      if (tok.size() - 2 != dim) return fail("q1 vector has wrong length");
      out[r].q1.reserve(dim);
      for (std::size_t k = 2; k < tok.size(); ++k) {
        PAYGO_ASSIGN_OR_RETURN(const double q, ParseDouble(tok[k]));
        out[r].q1.push_back(q);
      }
    } else {
      return fail("unknown directive '" + tok[0] + "'");
    }
  }
  for (const DomainConditionals& c : out) {
    if (c.q1.size() != dim) {
      return Status::InvalidArgument("classifier: missing q1 vector");
    }
  }
  return out;
}

namespace {

/// The v2 lexicon section: the sorted frozen term vector, one term per
/// line (tokenizer output never contains newlines), count first so the
/// parser pre-sizes and validates.
std::string SerializeLexiconSection(const Lexicon& lexicon) {
  std::ostringstream os;
  os << "terms " << lexicon.dim() << "\n";
  for (const std::string& t : lexicon.terms()) os << t << "\n";
  return os.str();
}

Result<std::vector<std::string>> ParseLexiconSection(std::string_view text) {
  const std::vector<std::string> lines = Split(text, '\n');
  if (lines.empty()) {
    return Status::InvalidArgument("lexicon section is empty");
  }
  const std::vector<std::string> head = SplitAny(Trim(lines[0]), " ");
  if (head.size() != 2 || head[0] != "terms") {
    return Status::InvalidArgument("lexicon section must start with 'terms'");
  }
  PAYGO_ASSIGN_OR_RETURN(const std::uint64_t dim, ParseUint(head[1]));
  std::vector<std::string> terms;
  terms.reserve(dim);
  for (std::size_t ln = 1; ln < lines.size(); ++ln) {
    if (lines[ln].empty()) continue;
    terms.push_back(lines[ln]);
  }
  if (terms.size() != dim) {
    return Status::InvalidArgument(
        "lexicon section declares " + std::to_string(dim) + " terms but has " +
        std::to_string(terms.size()));
  }
  return terms;
}

/// The v2 features section: per-schema sparse set-bit index lists.
/// "f <schema> <count> j1 j2 ..." — bitsets are sparse (a schema's terms
/// plus similar lexicon terms), so indices beat raw words.
std::string SerializeFeaturesSection(const std::vector<DynamicBitset>& features,
                                     std::size_t dim) {
  std::ostringstream os;
  os << "counts " << features.size() << " " << dim << "\n";
  for (std::size_t i = 0; i < features.size(); ++i) {
    os << "f " << i << " " << features[i].Count();
    for (std::size_t j = 0; j < features[i].size(); ++j) {
      if (features[i].Test(j)) os << " " << j;
    }
    os << "\n";
  }
  return os.str();
}

Result<std::vector<DynamicBitset>> ParseFeaturesSection(
    std::string_view text) {
  const std::vector<std::string> lines = Split(text, '\n');
  std::size_t ln = 0;
  auto fail = [&](const std::string& msg) {
    return Status::InvalidArgument("features line " + std::to_string(ln + 1) +
                                   ": " + msg);
  };
  std::vector<DynamicBitset> out;
  std::size_t dim = 0;
  bool have_counts = false;
  for (ln = 0; ln < lines.size(); ++ln) {
    const std::string line = Trim(lines[ln]);
    if (line.empty()) continue;
    const std::vector<std::string> tok = SplitAny(line, " ");
    if (tok[0] == "counts") {
      if (tok.size() != 3) return fail("counts needs two integers");
      PAYGO_ASSIGN_OR_RETURN(const std::uint64_t n, ParseUint(tok[1]));
      PAYGO_ASSIGN_OR_RETURN(const std::uint64_t d, ParseUint(tok[2]));
      out.assign(n, DynamicBitset(d));
      dim = d;
      have_counts = true;
    } else if (tok[0] == "f") {
      if (!have_counts) return fail("'f' before 'counts'");
      if (tok.size() < 3) return fail("f needs schema id and bit count");
      PAYGO_ASSIGN_OR_RETURN(const std::uint64_t i, ParseUint(tok[1]));
      if (i >= out.size()) return fail("schema id out of range");
      PAYGO_ASSIGN_OR_RETURN(const std::uint64_t count, ParseUint(tok[2]));
      if (tok.size() - 3 != count) return fail("set-bit count mismatch");
      for (std::size_t k = 3; k < tok.size(); ++k) {
        PAYGO_ASSIGN_OR_RETURN(const std::uint64_t j, ParseUint(tok[k]));
        if (j >= dim) return fail("bit index out of range");
        out[i].Set(j);
      }
    } else {
      return fail("unknown directive '" + tok[0] + "'");
    }
  }
  if (!have_counts) {
    return Status::InvalidArgument("features section missing 'counts'");
  }
  return out;
}

}  // namespace

Result<std::string> SerializeSnapshot(const IntegrationSystem& system) {
  if (!system.has_classifier()) {
    return Status::FailedPrecondition(
        "snapshotting requires a built classifier");
  }
  std::ostringstream out;
  out << kSnapshotHeaderV2 << "\n";
  out << "=== corpus ===\n" << SerializeCorpus(system.corpus());
  out << "=== lexicon ===\n" << SerializeLexiconSection(system.lexicon());
  out << "=== features ===\n"
      << SerializeFeaturesSection(system.features(), system.lexicon().dim());
  out << "=== model ===\n" << SerializeDomainModel(system.domains());
  out << "=== classifier ===\n"
      << SerializeConditionals(system.classifier().conditionals());
  out << "=== end ===\n";
  return out.str();
}

Result<std::unique_ptr<IntegrationSystem>> ParseSnapshot(
    std::string_view text_view, SystemOptions options) {
  const std::string text(text_view);
  auto section = [&](std::string_view name) -> Result<std::string> {
    const std::string marker = "=== " + std::string(name) + " ===\n";
    const std::size_t begin = text.find(marker);
    if (begin == std::string::npos) {
      return Status::InvalidArgument("snapshot missing section '" +
                                     std::string(name) + "'");
    }
    const std::size_t content = begin + marker.size();
    const std::size_t next = text.find("\n=== ", content - 1);
    return text.substr(content, next == std::string::npos
                                    ? std::string::npos
                                    : next + 1 - content);
  };

  const bool v2 = text.rfind(kSnapshotHeaderV2, 0) == 0;
  if (!v2 && text.rfind(kSnapshotHeader, 0) != 0) {
    return Status::InvalidArgument("missing paygo-snapshot header");
  }
  PAYGO_ASSIGN_OR_RETURN(const std::string corpus_text, section("corpus"));
  PAYGO_ASSIGN_OR_RETURN(const std::string model_text, section("model"));
  PAYGO_ASSIGN_OR_RETURN(const std::string clf_text, section("classifier"));
  PAYGO_ASSIGN_OR_RETURN(SchemaCorpus corpus, ParseCorpus(corpus_text));
  PAYGO_ASSIGN_OR_RETURN(DomainModel model, ParseDomainModel(model_text));
  PAYGO_ASSIGN_OR_RETURN(std::vector<DomainConditionals> conditionals,
                         ParseConditionals(clf_text));
  std::vector<std::string> lexicon_terms;
  std::vector<DynamicBitset> features;
  if (v2) {
    PAYGO_ASSIGN_OR_RETURN(const std::string lex_text, section("lexicon"));
    PAYGO_ASSIGN_OR_RETURN(const std::string feat_text, section("features"));
    PAYGO_ASSIGN_OR_RETURN(lexicon_terms, ParseLexiconSection(lex_text));
    PAYGO_ASSIGN_OR_RETURN(features, ParseFeaturesSection(feat_text));
  }
  return IntegrationSystem::Restore(std::move(corpus), std::move(options),
                                    std::move(model), std::move(conditionals),
                                    std::move(lexicon_terms),
                                    std::move(features));
}

Status SaveSnapshot(const IntegrationSystem& system, const std::string& path) {
  PAYGO_ASSIGN_OR_RETURN(const std::string text, SerializeSnapshot(system));
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << text;
  if (!out) return Status::IoError("write failed for " + path);
  return Status::OK();
}

Result<std::unique_ptr<IntegrationSystem>> LoadSnapshot(
    const std::string& path, SystemOptions options) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseSnapshot(buf.str(), std::move(options));
}

}  // namespace paygo
