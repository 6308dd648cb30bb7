// Fixture: two-tier aliases outside src/mem/ and tests/. The tier-literal
// rule flags the classic Tier::kFMem / Tier::kSMem spellings wherever they
// appear in policy-layer code — qualified or not, comparisons and call
// arguments alike — and tier_count() == 2 forks.
void bad(mtat::TieredMemory& mem, mtat::PageHotness& hist) {
  if (mem.tier_of(0) == mtat::Tier::kFMem) return;
  const auto cold = hist.coldest_page(Tier::kSMem);
  if (mem.tier_count() == 2) (void)cold;
  (void)mem;
}
