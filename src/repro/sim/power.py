"""Activity-based power model (the Xilinx XPower analogue for Figure 6.1).

Power is split into

* a **MicroBlaze** term with a large constant component — the thesis traces
  the processor's poor power efficiency mainly to its internal PLLs — plus a
  dynamic component proportional to how busy the processor actually is;
* an **FPGA fabric** term proportional to the LUTs in use, with a static
  leakage fraction and a dynamic fraction scaled by activity.

Only *relative* power matters for Figure 6.1 (everything is normalised to
the pure-software implementation), so the absolute milliwatt constants are
calibration knobs, chosen to land the pure-HW designs in the 0.3-0.6x band
and Twill between pure HW and pure SW — the ordering the thesis reports.
"""

from __future__ import annotations

from repro.results import PowerEstimate


class PowerModel:
    """Computes :class:`PowerEstimate` values from area and activity."""

    # Calibration constants (milliwatts).
    MICROBLAZE_PLL_MW = 320.0          # constant cost of the processor's clocking
    MICROBLAZE_DYNAMIC_MW = 430.0      # at 100% utilisation
    FABRIC_STATIC_UW_PER_LUT = 5.0     # leakage + clock tree per used LUT
    FABRIC_DYNAMIC_UW_PER_LUT = 12.0   # at 100% toggle activity
    DSP_MW = 4.0                       # per DSP block, mostly dynamic
    BRAM_MW = 3.0                      # per BRAM block

    def estimate(
        self,
        luts: int,
        dsps: int = 0,
        brams: int = 0,
        fabric_activity: float = 1.0,
        has_processor: bool = False,
        processor_utilisation: float = 1.0,
    ) -> PowerEstimate:
        """Power of one configuration.

        ``fabric_activity`` and ``processor_utilisation`` are in [0, 1]:
        the fraction of cycles the fabric / the processor is doing work.
        """
        fabric_activity = min(max(fabric_activity, 0.0), 1.0)
        processor_utilisation = min(max(processor_utilisation, 0.0), 1.0)
        estimate = PowerEstimate()
        if has_processor:
            estimate.microblaze_mw = (
                self.MICROBLAZE_PLL_MW + self.MICROBLAZE_DYNAMIC_MW * processor_utilisation
            )
        estimate.fabric_static_mw = (
            luts * self.FABRIC_STATIC_UW_PER_LUT / 1000.0
            + brams * self.BRAM_MW * 0.4
        )
        estimate.fabric_dynamic_mw = (
            luts * self.FABRIC_DYNAMIC_UW_PER_LUT * fabric_activity / 1000.0
            + dsps * self.DSP_MW * fabric_activity
            + brams * self.BRAM_MW * 0.6 * fabric_activity
        )
        return estimate

    # -- convenience wrappers for the three standard configurations ---------------------

    def pure_software(self, utilisation: float = 1.0) -> PowerEstimate:
        return self.estimate(luts=0, has_processor=True, processor_utilisation=utilisation)

    def pure_hardware(self, luts: int, dsps: int = 0, brams: int = 0, activity: float = 0.8) -> PowerEstimate:
        return self.estimate(luts=luts, dsps=dsps, brams=brams, fabric_activity=activity, has_processor=False)

    def twill(
        self,
        hw_luts: int,
        runtime_luts: int,
        dsps: int = 0,
        brams: int = 0,
        fabric_activity: float = 0.7,
        processor_utilisation: float = 0.3,
    ) -> PowerEstimate:
        return self.estimate(
            luts=hw_luts + runtime_luts,
            dsps=dsps,
            brams=brams,
            fabric_activity=fabric_activity,
            has_processor=True,
            processor_utilisation=processor_utilisation,
        )
