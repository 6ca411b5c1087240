// R6 fixture: an analytic-tier component that derives from Clocked
// and pulls in the event loop — closed-form code must do neither.
#ifndef FIXTURE_R6_BAD_HH
#define FIXTURE_R6_BAD_HH

#include "sim/clocked.hh"
#include "sim/event_queue.hh"

using Tick = unsigned long long;

class Clocked
{
  public:
    virtual ~Clocked() = default;
    virtual void tick(Tick now) = 0;
    virtual Tick nextWakeTick(Tick now) const { return now + 1; }
    virtual void checkpoint() {}
};

class SteppedModel : public Clocked
{
  public:
    void tick(Tick now) override { lastAt_ = now; }
    Tick nextWakeTick(Tick now) const override { return now + 1; }
    void checkpoint() override { lastAt_ = 0; }

  private:
    Tick lastAt_ = 0;
};

#endif
