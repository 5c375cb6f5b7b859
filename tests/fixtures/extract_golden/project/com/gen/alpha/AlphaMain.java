package com.gen.alpha;

import com.gen.alpha.AlphaAux;

public class AlphaMain {
  public void run(String value) {
    log.debug("close");
  }

  public static String h2(String a) {
    if ("load".equals(a)) {
      return AlphaAux.h1("open_", "init-");
    } else if (a.startsWith("probe")) {
      return a.toLowerCase() + AlphaAux.h1("bind", "bind: ") + a;
    } else {
      return a.toUpperCase() + a + a;
    }
  }
}
