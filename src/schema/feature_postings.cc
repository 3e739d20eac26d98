#include "schema/feature_postings.h"

#include <cassert>

namespace paygo {

FeaturePostings FeaturePostings::Build(FeatureRows features,
                                       std::size_t dim) {
  std::vector<List> lists(dim);
  FeaturePostings index;
  std::vector<std::size_t> bits;
  for (std::size_t i = 0; i < features.size(); ++i) {
    assert(features[i].size() == dim);
    bits.clear();
    features[i].AppendSetBits(&bits);
    for (std::size_t t : bits) {
      lists[t].push_back(static_cast<std::uint32_t>(i));
    }
    index.popcounts_.push_back(static_cast<std::uint32_t>(bits.size()));
  }
  index.lists_.resize(dim);
  for (std::size_t t = 0; t < dim; ++t) {
    if (!lists[t].empty()) {
      index.lists_[t] = std::make_shared<const List>(std::move(lists[t]));
    }
  }
  return index;
}

void FeaturePostings::Append(const DynamicBitset& f) {
  assert(f.size() == dim());
  const auto id = static_cast<std::uint32_t>(num_schemas());
  std::uint32_t count = 0;
  for (std::size_t t : f.SetBits()) {
    auto list = lists_[t] == nullptr ? std::make_shared<List>()
                                     : std::make_shared<List>(*lists_[t]);
    list->push_back(id);
    lists_[t] = std::move(list);
    ++count;
  }
  popcounts_.push_back(count);
}

std::size_t FeaturePostings::JaccardRow(const DynamicBitset& f,
                                        std::vector<double>* row) const {
  const std::size_t n = num_schemas();
  row->assign(n, 0.0);
  // Intersection counts accumulate in the row itself (small integers are
  // exact in a double); `touched` lists each schema once.
  std::vector<std::uint32_t> touched;
  std::size_t visited = 0;
  std::size_t f_count = 0;
  for (std::size_t t : f.SetBits()) {
    ++f_count;
    for (std::uint32_t id : Postings(t)) {
      if ((*row)[id] == 0.0) touched.push_back(id);
      (*row)[id] += 1.0;
    }
    visited += Postings(t).size();
  }
  for (std::uint32_t id : touched) {
    const auto inter = static_cast<std::size_t>((*row)[id]);
    const std::size_t uni = f_count + popcounts_[id] - inter;
    (*row)[id] = static_cast<double>(inter) / static_cast<double>(uni);
  }
  return visited;
}

}  // namespace paygo
